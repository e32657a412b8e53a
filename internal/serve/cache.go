package serve

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/grid"
)

// gridCache is an LRU cache of density cubes keyed by estimateKey, with
// resident bytes accounted against a grid.Budget. Evicted cubes are merely
// dereferenced (never Released): readers that obtained a cube before its
// eviction keep a valid, immutable volume and the garbage collector
// reclaims it when the last reader drops it.
type gridCache struct {
	mu      sync.Mutex
	budget  *grid.Budget
	entries map[estimateKey]*list.Element
	lru     *list.List // front = most recently used

	// resident is the byte total of the LRU entries themselves. The
	// budget may additionally carry non-evictable charges (stream window
	// rings); Used()-resident is that pinned share, which eviction can
	// never reclaim.
	resident int64
}

// cube is one density cube and its analytics sketch: the summed-volume
// pyramid built with it, nil when the pair did not fit the cache budget
// (readers then scan the grid).
type cube struct {
	res *core.Result
	py  *grid.Pyramid
}

type cacheEntry struct {
	key   estimateKey
	c     cube
	bytes int64 // the grid's, plus its pyramid's when it has one
}

func newGridCache(limitBytes int64) *gridCache {
	return &gridCache{
		budget:  grid.NewBudget(limitBytes),
		entries: map[estimateKey]*list.Element{},
		lru:     list.New(),
	}
}

// get returns the cached cube for the key, promoting it to most recently
// used. Its result carries no phase timings: nothing ran to answer it.
func (c *gridCache) get(k estimateKey) (cube, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return cube{}, false
	}
	c.lru.MoveToFront(e)
	return e.Value.(*cacheEntry).c, true
}

// contains reports whether the key is resident without promoting it.
func (c *gridCache) contains(k estimateKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

// evictableLocked is the share of the budget cached cubes may hold: the
// limit minus the pinned stream charges. Callers hold c.mu.
func (c *gridCache) evictableLocked() int64 {
	return c.budget.Limit() - (c.budget.Used() - c.resident)
}

// fits reports whether a cube of the given bytes fits the evictable share.
func (c *gridCache) fits(bytes int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes <= c.evictableLocked()
}

// put inserts a cube, charging its grid and pyramid as one entry and
// evicting least-recently-used entries until the byte budget admits it.
// When the pair no longer fits the evictable share (a pinned charge grew
// since the pyramid was built) the grid is cached alone; a grid that alone
// does not fit is not cached at all (cached false), and evicts nothing on
// the way to finding that out.
func (c *gridCache) put(k estimateKey, cb cube) (evicted int, cached bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok { // racing writer won; keep the resident cube
		c.lru.MoveToFront(e)
		return 0, true
	}
	// Headroom check after the resident check: an already-cached key must
	// count as a hit (and get its LRU touch) even when pinned stream
	// charges have since shrunk the evictable share below its size.
	room, bytes := c.evictableLocked(), cb.res.Grid.Spec.Bytes()
	if cb.py != nil && bytes+cb.py.Bytes() <= room {
		bytes += cb.py.Bytes()
	} else {
		cb.py = nil
	}
	if bytes > room {
		return 0, false
	}
	for c.budget.Alloc(bytes) != nil {
		back := c.lru.Back()
		if back == nil {
			return evicted, false // a pinned charge raced the headroom check
		}
		c.dropLocked(back)
		evicted++
	}
	cb.res = resultFromGrid(k, cb.res.Grid)
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, c: cb, bytes: bytes})
	c.resident += bytes
	return evicted, true
}

// dropLocked removes one LRU element, returning its bytes to the budget.
// Callers hold c.mu.
func (c *gridCache) dropLocked(e *list.Element) {
	ent := e.Value.(*cacheEntry)
	c.lru.Remove(e)
	delete(c.entries, ent.key)
	c.budget.Free(ent.bytes)
	c.resident -= ent.bytes
}

// invalidateDataset drops every cached cube derived from the dataset, to
// free the memory of cubes a stream mutation or deletion left unreachable
// (their keys name a version or an id no request resolves any more).
// Other datasets' entries are untouched. It returns the number dropped.
func (c *gridCache) invalidateDataset(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, e := range c.entries {
		if k.Dataset != id {
			continue
		}
		c.dropLocked(e)
		n++
	}
	return n
}

// evictFor evicts least-recently-used cubes until the budget has room for
// a charge of the given bytes (a stream's window ring or sketch). It gives
// up when the cache is empty; the caller's own allocation against the
// shared budget then reports the shortfall.
func (c *gridCache) evictFor(bytes int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for c.budget.Limit() > 0 && c.budget.Used()+bytes > c.budget.Limit() {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.dropLocked(back)
		n++
	}
	return n
}

// budgetHandle exposes the cache's byte budget so long-lived stream grids
// are accounted in the same pool the LRU evicts against.
func (c *gridCache) budgetHandle() *grid.Budget { return c.budget }

// stats reports occupancy: resident cubes, charged bytes, byte limit.
func (c *gridCache) stats() (entries int, bytes, limit int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.budget.Used(), c.budget.Limit()
}
