package grid

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrMemoryBudget is returned when an allocation would exceed a Budget.
// The benchmark harness renders this condition as "OOM", reproducing the
// out-of-memory annotations in the paper's Figures 8 and 14.
var ErrMemoryBudget = errors.New("grid: memory budget exceeded")

// Budget tracks memory charged against a configurable limit. It lets the
// experiments reproduce the paper's 128 GB machine deterministically: domain
// replication on huge grids fails with ErrMemoryBudget instead of swapping.
//
// A nil *Budget is valid and unlimited, so callers can pass it through
// without nil checks.
type Budget struct {
	limit int64
	used  atomic.Int64
}

// NewBudget creates a budget of the given number of bytes. A non-positive
// limit means unlimited (but usage is still tracked).
func NewBudget(bytes int64) *Budget {
	return &Budget{limit: bytes}
}

// Alloc charges n bytes against the budget, failing with ErrMemoryBudget
// (and charging nothing) if the budget would be exceeded.
func (b *Budget) Alloc(n int64) error {
	if b == nil || n <= 0 {
		return nil
	}
	for {
		cur := b.used.Load()
		next := cur + n
		if b.limit > 0 && next > b.limit {
			return fmt.Errorf("%w: in use %d + requested %d > limit %d bytes",
				ErrMemoryBudget, cur, n, b.limit)
		}
		if b.used.CompareAndSwap(cur, next) {
			return nil
		}
	}
}

// Free returns n bytes to the budget.
func (b *Budget) Free(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.used.Add(-n)
}

// Used returns the bytes currently charged.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Limit returns the configured limit (0 means unlimited).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}
