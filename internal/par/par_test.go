package par

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestBlocksCoverage: Blocks must visit every index exactly once, for any
// worker count and size.
func TestBlocksCoverage(t *testing.T) {
	check := func(p, n uint8) bool {
		N := int(n % 200)
		marks := make([]int32, N)
		Blocks(int(p%20), N, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		})
		for _, m := range marks {
			if m != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStripsCoverage: Strips runs every strip exactly once, with its
// bounds, on a worker whose index is below p, and all have run when it
// returns — for fewer, as many and more strips than workers.
func TestStripsCoverage(t *testing.T) {
	for _, cuts := range [][]int{{0, 5}, {0, 3, 3, 9}, {2, 4, 6, 8, 10}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}} {
		want := make([][2]int, len(cuts)-1)
		for s := range want {
			want[s] = [2]int{cuts[s], cuts[s+1]}
		}
		for _, p := range []int{1, 2, 3, 8} {
			var mu sync.Mutex
			var ran [][2]int
			Strips(p, cuts, func(w, lo, hi int) {
				if w < 0 || w >= p {
					t.Errorf("cuts %v, p=%d: worker index %d", cuts, p, w)
				}
				mu.Lock()
				ran = append(ran, [2]int{lo, hi})
				mu.Unlock()
			})
			mu.Lock()
			slices.SortFunc(ran, func(a, b [2]int) int {
				if a[0] != b[0] {
					return a[0] - b[0]
				}
				return a[1] - b[1]
			})
			if !slices.Equal(ran, want) {
				t.Fatalf("cuts %v, p=%d: strips run %v, want each of %v once", cuts, p, ran, want)
			}
			mu.Unlock()
		}
	}
}

// TestStripsWorkersExit: no worker goroutine of Strips outlives the call,
// and a one-worker call starts none.
func TestStripsWorkersExit(t *testing.T) {
	settled := func() int {
		// A goroutine may still be returning after it signalled
		// completion; wait (boundedly) for the count to stop changing.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				return n
			}
			n = m
		}
		return n
	}
	base := settled()
	cuts := []int{0, 2, 4, 6, 8, 10, 12, 14, 16}
	for _, p := range []int{1, 2, 4, 16} {
		Strips(p, cuts, func(w, lo, hi int) {
			if n := runtime.NumGoroutine(); p == 1 && n != base {
				t.Errorf("p=1: strip [%d, %d) ran beside %d goroutines, %d before the call", lo, hi, n, base)
			}
		})
		if n := settled(); n != base {
			t.Fatalf("p=%d: %d goroutines after the call, %d before", p, n, base)
		}
	}
}

func TestBlocksWorkerIDsDisjoint(t *testing.T) {
	const p, n = 7, 1000
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	Blocks(p, n, func(w, lo, hi int) {
		if w < 0 || w >= p {
			t.Errorf("worker id %d out of range", w)
		}
		for i := lo; i < hi; i++ {
			if !atomic.CompareAndSwapInt32(&owner[i], -1, int32(w)) {
				t.Errorf("index %d claimed twice", i)
			}
		}
	})
}

func TestForCoverage(t *testing.T) {
	for _, p := range []int{0, 1, 3, 16} {
		for _, n := range []int{0, 1, 5, 1000} {
			marks := make([]int32, n)
			For(p, n, func(i int) { atomic.AddInt32(&marks[i], 1) })
			for i, m := range marks {
				if m != 1 {
					t.Fatalf("p=%d n=%d index %d visited %d times", p, n, i, m)
				}
			}
		}
	}
}

func TestThreads(t *testing.T) {
	if Threads(5) != 5 {
		t.Error("explicit thread count not honored")
	}
	if Threads(0) < 1 || Threads(-3) < 1 {
		t.Error("defaulted thread count must be >= 1")
	}
}

// TestGraphRespectsDependencies builds random layered DAGs and checks that
// every predecessor finishes before its successor starts.
func TestGraphRespectsDependencies(t *testing.T) {
	check := func(seed int64, pw uint8) bool {
		p := int(pw%8) + 1
		rng := seed
		next := func() int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := rng >> 33
			if v < 0 {
				v = -v
			}
			return v
		}
		const n = 60
		g := &Graph{}
		var clock atomic.Int64
		start := make([]int64, n)
		finish := make([]int64, n)
		for i := 0; i < n; i++ {
			i := i
			g.Add(float64(next()%100), func(int) {
				start[i] = clock.Add(1)
				finish[i] = clock.Add(1)
			})
		}
		type edge struct{ u, v int }
		var edges []edge
		for v := 1; v < n; v++ {
			for e := 0; e < 3; e++ {
				u := int(next()) % v
				edges = append(edges, edge{u, v})
				g.AddDep(u, v)
			}
		}
		g.Run(p)
		for _, e := range edges {
			if finish[e.u] == 0 || start[e.v] == 0 {
				return false // some task did not run
			}
			if finish[e.u] > start[e.v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGraphPriorityOrder: with one worker, ready tasks must run in
// non-increasing priority order.
func TestGraphPriorityOrder(t *testing.T) {
	g := &Graph{}
	var mu sync.Mutex
	var order []int
	prios := []float64{1, 9, 4, 7, 2}
	for i, p := range prios {
		i := i
		g.Add(p, func(int) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	g.Run(1)
	want := []int{1, 3, 2, 4, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestGraphDiamond(t *testing.T) {
	g := &Graph{}
	var trace []string
	var mu sync.Mutex
	add := func(name string) int {
		return g.Add(0, func(int) {
			mu.Lock()
			trace = append(trace, name)
			mu.Unlock()
		})
	}
	a, b, c, d := add("a"), add("b"), add("c"), add("d")
	g.AddDep(a, b)
	g.AddDep(a, c)
	g.AddDep(b, d)
	g.AddDep(c, d)
	g.Run(4)
	if len(trace) != 4 || trace[0] != "a" || trace[3] != "d" {
		t.Fatalf("diamond order = %v", trace)
	}
}

// TestGraphWorkerIndex: every task runs with a worker index in [0, p) that
// no other running task holds, so tasks bump per-worker counters with no
// synchronization (which -race checks) and the counters add up to the task
// count exactly; and nil-run join tasks order their successors: each layer
// of tasks waits on a join that waits on the whole layer before it.
func TestGraphWorkerIndex(t *testing.T) {
	const layers, width = 6, 40
	for _, p := range []int{1, 2, 3, 8} {
		g := &Graph{}
		counts := make([][8]int64, p) // padded: one cache line per worker
		busy := make([]atomic.Bool, p)
		var done [layers]atomic.Int64
		join := -1
		for l := 0; l < layers; l++ {
			l := l
			next := g.Add(0, nil)
			for i := 0; i < width; i++ {
				id := g.Add(float64(i), func(w int) {
					if w < 0 || w >= p {
						t.Errorf("p=%d: worker index %d", p, w)
						return
					}
					if !busy[w].CompareAndSwap(false, true) {
						t.Errorf("p=%d: two tasks ran as worker %d at once", p, w)
					}
					if l > 0 && done[l-1].Load() != width {
						t.Errorf("p=%d: layer %d ran before layer %d finished", p, l, l-1)
					}
					counts[w][0]++
					time.Sleep(20 * time.Microsecond) // let the workers' tasks overlap
					counts[w][0]++
					busy[w].Store(false)
					done[l].Add(1)
				})
				if join >= 0 {
					g.AddDep(join, id)
				}
				g.AddDep(id, next)
			}
			join = next
		}
		g.Run(p)
		var total int64
		for w := range counts {
			total += counts[w][0]
		}
		if total != 2*layers*width {
			t.Fatalf("p=%d: counted %d increments, want %d", p, total, 2*layers*width)
		}
	}
}

func TestGraphEmpty(t *testing.T) {
	g := &Graph{}
	g.Run(4) // must not hang or panic
}

func TestGraphCyclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cyclic graph")
		}
	}()
	g := &Graph{}
	a := g.Add(0, func(int) {})
	b := g.Add(0, func(int) {})
	g.AddDep(a, b)
	g.AddDep(b, a)
	g.Run(2)
}

func TestGraphSelfDepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-dependency")
		}
	}()
	g := &Graph{}
	a := g.Add(0, func(int) {})
	g.AddDep(a, a)
}

func TestGraphManyTasks(t *testing.T) {
	g := &Graph{}
	const n = 5000
	var ran atomic.Int64
	prev := -1
	for i := 0; i < n; i++ {
		id := g.Add(float64(i%17), func(int) { ran.Add(1) })
		if prev >= 0 && i%7 == 0 {
			g.AddDep(prev, id)
		}
		prev = id
	}
	g.Run(8)
	if ran.Load() != n {
		t.Fatalf("ran %d of %d tasks", ran.Load(), n)
	}
}

func TestBlocksMin(t *testing.T) {
	// With min=10 over n=25, at most 2 workers may run; coverage must be
	// complete and disjoint.
	var mu sync.Mutex
	seen := make([]int, 25)
	workers := map[int]bool{}
	BlocksMin(8, 25, 10, func(w, lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		workers[w] = true
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("element %d covered %d times", i, c)
		}
	}
	if len(workers) > 2 {
		t.Errorf("min block size not honored: %d workers", len(workers))
	}
	// n below min runs serially.
	calls := 0
	BlocksMin(8, 5, 100, func(w, lo, hi int) { calls++ })
	if calls != 1 {
		t.Errorf("expected single serial block, got %d", calls)
	}
	// Zero n is a no-op.
	BlocksMin(4, 0, 10, func(w, lo, hi int) { t.Error("body called for n=0") })
}
