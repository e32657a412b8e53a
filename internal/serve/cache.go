package serve

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
)

// gridCache is the server's one cache of derived data: an LRU of density
// cubes and exact-query indexes keyed by estimateKey, with resident bytes
// accounted against a grid.Budget. Evicted entries are merely
// dereferenced (never Released): readers that obtained one before its
// eviction keep a valid, immutable value and the garbage collector
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

// cube is one cache entry. Keyed by an algorithm, it is a density cube and
// its analytics sketch: the summed-volume pyramid built with it, nil when
// the pair did not fit the cache budget (readers then scan the grid).
// Keyed with the algorithm cleared, it is an exact-query index (core.Query,
// the VB-DEC bandwidth-block binning) over the dataset's events.
type cube struct {
	res *core.Result
	py  *grid.Pyramid

	q      *core.Query
	qbytes int64 // q's bins, plus the events it indexes when it owns them (a stream's live set)
}

// bytes is the entry's charge to the cache budget: the grid and its
// pyramid, or the index and the events it owns.
func (cb cube) bytes() int64 {
	if cb.q != nil {
		return cb.qbytes
	}
	n := cb.res.Grid.Spec.Bytes()
	if cb.py != nil {
		n += cb.py.Bytes()
	}
	return n
}

// cubeView reads a density cube as a readView: from its pyramid when it
// has one, else by scanning the grid, always at full coverage.
type cubeView struct{ cube }

func (v cubeView) Spec() grid.Spec { return v.res.Grid.Spec }

func (v cubeView) AtCov(X, Y, T int) (float64, dist.Coverage, error) {
	return v.res.Grid.At(X, Y, T), fullCoverage, nil
}

func (v cubeView) BoxMassCov(b grid.Box) (float64, dist.Coverage, error) {
	if v.py != nil {
		return v.py.BoxMass(b), fullCoverage, nil
	}
	return v.res.Grid.BoxMass(b), fullCoverage, nil
}

func (v cubeView) TopKCov(k int) ([]grid.VoxelDensity, dist.Coverage, error) {
	if v.py != nil {
		return v.py.TopK(k), fullCoverage, nil
	}
	return v.res.Grid.TopK(k), fullCoverage, nil
}

type cacheEntry struct {
	key   estimateKey
	c     cube
	bytes int64 // c.bytes() as cached
}

func newGridCache(limitBytes int64) *gridCache {
	return &gridCache{
		budget:  grid.NewBudget(limitBytes),
		entries: map[estimateKey]*list.Element{},
		lru:     list.New(),
	}
}

// get returns the cached entry for the key, promoting it to most recently
// used. A cube's result carries no phase timings: nothing ran to answer it.
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

// evictableLocked is the share of the budget cache entries may hold: the
// limit minus the pinned stream charges. Callers hold c.mu.
func (c *gridCache) evictableLocked() int64 {
	return c.budget.Limit() - (c.budget.Used() - c.resident)
}

// fits reports whether an entry of the given bytes fits the evictable share.
func (c *gridCache) fits(bytes int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes <= c.evictableLocked()
}

// put inserts an entry, charging a cube's grid and pyramid as one entry,
// and evicts least-recently-used entries until the byte budget admits it.
// When a cube's pair no longer fits the evictable share (a pinned charge
// grew since the pyramid was built) the grid is cached alone; an entry
// that still does not fit is not cached at all (cached false), and evicts
// nothing on the way to finding that out.
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
	room := c.evictableLocked()
	if cb.bytes() > room {
		cb.py = nil
	}
	bytes := cb.bytes()
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

// invalidateDataset drops every cache entry derived from the dataset, to
// free the memory of entries a stream mutation or deletion left unreachable
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

// evictFor evicts least-recently-used entries until the budget has room for
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

// stats reports occupancy: resident entries, charged bytes, byte limit.
func (c *gridCache) stats() (entries int, bytes, limit int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.budget.Used(), c.budget.Limit()
}
