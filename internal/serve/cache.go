package serve

import (
	"container/list"
	"sync"

	"repro/internal/grid"
)

// gridCache is an LRU cache of density grids keyed by (dataset, Spec,
// algorithm), with resident bytes accounted against a grid.Budget. Evicted
// grids are merely dereferenced (never Released): readers that obtained a
// grid before its eviction keep a valid, immutable volume and the garbage
// collector reclaims it when the last reader drops it.
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

type cacheEntry struct {
	key   estimateKey
	g     *grid.Grid
	bytes int64
	// py is the entry's analytics sketch (summed-volume pyramid), attached
	// lazily by the first region/hotspot/job-mass query against the grid.
	// Its budget charge is its own (grid.NewPyramid allocated it); the
	// cache counts it in resident so the evictable share stays truthful,
	// and releases it when the entry drops.
	py *grid.Pyramid
}

func newGridCache(limitBytes int64) *gridCache {
	return &gridCache{
		budget:  grid.NewBudget(limitBytes),
		entries: map[estimateKey]*list.Element{},
		lru:     list.New(),
	}
}

// get returns the cached grid for the key, promoting it to most recently
// used.
func (c *gridCache) get(k estimateKey) (*grid.Grid, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e)
	return e.Value.(*cacheEntry).g, true
}

// contains reports whether the key is resident without promoting it.
func (c *gridCache) contains(k estimateKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

// put inserts a grid, evicting least-recently-used entries until the byte
// budget admits it. It returns the number of evictions and whether the
// grid was cached at all (a grid larger than the evictable share of the
// budget — the limit minus pinned stream-ring charges — is not, and
// evicts nothing on the way to finding that out).
func (c *gridCache) put(k estimateKey, g *grid.Grid) (evicted int, cached bool) {
	bytes := g.Spec.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok { // racing writer won; keep the resident grid
		c.lru.MoveToFront(e)
		return 0, true
	}
	// Headroom check after the resident check: an already-cached key must
	// count as a hit (and get its LRU touch) even when pinned stream
	// charges have since shrunk the evictable share below its size.
	if pinned := c.budget.Used() - c.resident; bytes > c.budget.Limit()-pinned {
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
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, g: g, bytes: bytes})
	c.resident += bytes
	return evicted, true
}

// dropLocked removes one LRU element, returning its bytes (and its
// pyramid's, when one is attached) to the budget. Callers hold c.mu.
func (c *gridCache) dropLocked(e *list.Element) {
	ent := e.Value.(*cacheEntry)
	c.lru.Remove(e)
	delete(c.entries, ent.key)
	c.budget.Free(ent.bytes)
	c.resident -= ent.bytes
	if ent.py != nil {
		// Dereference, don't Release: like evicted grids, a reader that
		// obtained the pyramid before the drop keeps a valid immutable
		// index and the garbage collector reclaims it. Only the budget
		// charge is returned here.
		c.resident -= ent.py.Bytes()
		c.budget.Free(ent.py.Bytes())
		ent.py = nil
	}
}

// getPyramid returns the attached analytics pyramid for the key, promoting
// the entry to most recently used.
func (c *gridCache) getPyramid(k estimateKey) (*grid.Pyramid, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	ent := e.Value.(*cacheEntry)
	if ent.py == nil {
		return nil, false
	}
	c.lru.MoveToFront(e)
	return ent.py, true
}

// attachPyramid publishes a freshly built pyramid onto the key's entry.
// The publish is identity-checked against the exact grid the pyramid was
// built from, not just the key: if the entry was evicted or invalidated
// while the pyramid was building and then refilled under the same key
// with a different grid (a stream mutation raced the build), adopting
// would publish a stale pre-mutation index onto post-mutation data.
// In that case nothing is adopted and the caller keeps ownership for the
// duration of its own request. If a racing builder already attached a
// pyramid for the same grid, it is returned so the caller can answer from
// it and release its duplicate.
func (c *gridCache) attachPyramid(k estimateKey, py *grid.Pyramid) (adopted bool, existing *grid.Pyramid) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return false, nil
	}
	ent := e.Value.(*cacheEntry)
	if ent.g != py.Grid() {
		return false, nil
	}
	if ent.py != nil {
		return false, ent.py
	}
	ent.py = py
	c.resident += py.Bytes()
	return true, py
}

// invalidateDataset drops every cached grid derived from the dataset — the
// correctness hinge of mutable stream datasets: after an ingest or window
// advance, no stale cube may be served. Other datasets' entries are
// untouched. It returns the number of grids dropped.
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

// evictFor evicts least-recently-used grids until the budget has room for
// a charge of the given bytes (a stream's window ring or sketch, or an
// analytics pyramid). It gives up when the cache is empty or eviction
// reaches the entry keyed except: a pyramid build must never evict the very
// grid it is indexing (the key was just served, so it sits at the LRU
// front). The caller's own allocation against the shared budget then
// reports the shortfall.
func (c *gridCache) evictFor(bytes int64, except estimateKey) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for c.budget.Limit() > 0 && c.budget.Used()+bytes > c.budget.Limit() {
		back := c.lru.Back()
		if back == nil || back.Value.(*cacheEntry).key == except {
			break
		}
		c.dropLocked(back)
		n++
	}
	return n
}

// pinnedBytes reports the budget share held by non-evictable charges
// (stream window rings and their sketches): Used() minus the LRU
// residents. Eviction can never reclaim it.
func (c *gridCache) pinnedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget.Used() - c.resident
}

// budgetHandle exposes the cache's byte budget so long-lived stream grids
// are accounted in the same pool the LRU evicts against.
func (c *gridCache) budgetHandle() *grid.Budget { return c.budget }

// stats reports occupancy: resident grids, charged bytes, byte limit.
func (c *gridCache) stats() (entries int, bytes, limit int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.budget.Used(), c.budget.Limit()
}
