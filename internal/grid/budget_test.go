package grid

import (
	"errors"
	"sync"
	"testing"
)

func TestBudgetBasics(t *testing.T) {
	b := NewBudget(100)
	if err := b.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := b.Alloc(50); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("expected ErrMemoryBudget, got %v", err)
	}
	if b.Used() != 60 {
		t.Errorf("failed alloc must charge nothing, used=%d", b.Used())
	}
	if err := b.Alloc(40); err != nil {
		t.Fatal(err)
	}
	b.Free(100)
	if b.Used() != 0 {
		t.Errorf("used = %d after free", b.Used())
	}
	if b.Limit() != 100 {
		t.Errorf("limit = %d", b.Limit())
	}
}

func TestBudgetUnlimitedAndNil(t *testing.T) {
	var nilB *Budget
	if err := nilB.Alloc(1 << 40); err != nil {
		t.Fatal("nil budget must allow everything")
	}
	nilB.Free(5) // must not panic
	if nilB.Used() != 0 || nilB.Limit() != 0 {
		t.Error("nil budget accessors must be zero")
	}
	b := NewBudget(0) // unlimited but tracking
	if err := b.Alloc(1 << 40); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 1<<40 {
		t.Error("unlimited budget must still track")
	}
	if b.Alloc(0) != nil || b.Alloc(-5) != nil {
		t.Error("non-positive allocations are no-ops")
	}
}

// TestBudgetConcurrent hammers the budget from many goroutines; the final
// accounting must balance and the limit must never be breached.
func TestBudgetConcurrent(t *testing.T) {
	const limit = 1000
	b := NewBudget(limit)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := b.Alloc(7); err == nil {
					if b.Used() > limit {
						t.Error("limit breached")
					}
					b.Free(7)
				}
			}
		}()
	}
	wg.Wait()
	if b.Used() != 0 {
		t.Errorf("final used = %d, want 0", b.Used())
	}
}

func TestGridReleaseIdempotent(t *testing.T) {
	s := mustSpec(t, Domain{GX: 4, GY: 4, GT: 4}, 1, 1, 1, 1)
	b := NewBudget(1 << 20)
	g, err := NewGrid(s, b)
	if err != nil {
		t.Fatal(err)
	}
	used := b.Used()
	if used != s.Bytes() {
		t.Fatalf("charged %d, want %d", used, s.Bytes())
	}
	g.Release()
	g.Release() // second release must not double-free
	if b.Used() != 0 {
		t.Errorf("used = %d after release", b.Used())
	}
}

func TestNewGridBudgetRefusal(t *testing.T) {
	s := mustSpec(t, Domain{GX: 100, GY: 100, GT: 100}, 1, 1, 1, 1)
	b := NewBudget(10) // way too small
	if _, err := NewGrid(s, b); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("expected ErrMemoryBudget, got %v", err)
	}
	if b.Used() != 0 {
		t.Error("failed NewGrid must not leak budget")
	}
}
