package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
)

// dataset is one registered event set. Batch datasets are
// content-addressed by the hash of their points, so identical uploads
// deduplicate and ids are immutable. Stream datasets (created by
// POST /v1/streams) are mutable and own no events: the live window is the
// one copy of the live set, read on demand, and the dataset carries only
// the version that keys every cache entry derived from it.
type dataset struct {
	id    string
	added time.Time
	st    *stream // a stream's window and lock; nil for batch datasets

	pts    []grid.Point  // batch datasets: immutable after add
	bounds [2]grid.Point // ... and their tight bounding box: min, max per axis

	version atomic.Int64 // bumped after every stream mutation
}

// points returns the current event snapshot, which must not be mutated.
// For a stream it is a copy of the window's live set.
func (ds *dataset) points() []grid.Point {
	if ds.st != nil {
		return ds.st.up.Live()
	}
	return ds.pts
}

// size returns the current event count.
func (ds *dataset) size() int {
	if ds.st != nil {
		return ds.st.up.N()
	}
	return len(ds.pts)
}

// boundsBox returns the tight bounding box of the current events and
// their count (for a stream, both from one read of the live set).
func (ds *dataset) boundsBox() (lo, hi grid.Point, n int) {
	if ds.st == nil {
		return ds.bounds[0], ds.bounds[1], len(ds.pts)
	}
	pts := ds.st.up.Live()
	b := boundsOf(pts)
	return b[0], b[1], len(pts)
}

// ver returns the mutation version.
func (ds *dataset) ver() int64 { return ds.version.Load() }

// bump records a stream mutation. Callers bump after the window has
// changed, so a reader that loads version v then reads the events of v or
// a later version.
func (ds *dataset) bump() { ds.version.Add(1) }

// boundsOf returns the tight bounding box of pts (inverted infinities for
// an empty set).
func boundsOf(pts []grid.Point) [2]grid.Point {
	b := [2]grid.Point{
		{X: math.Inf(1), Y: math.Inf(1), T: math.Inf(1)},
		{X: math.Inf(-1), Y: math.Inf(-1), T: math.Inf(-1)},
	}
	for _, p := range pts {
		b[0].X, b[1].X = math.Min(b[0].X, p.X), math.Max(b[1].X, p.X)
		b[0].Y, b[1].Y = math.Min(b[0].Y, p.Y), math.Max(b[1].Y, p.Y)
		b[0].T, b[1].T = math.Min(b[0].T, p.T), math.Max(b[1].T, p.T)
	}
	return b
}

// registry is the server's one table of datasets: the content-addressed
// batch sets and the live streams (the datasets whose st is non-nil).
// Everything derived from a dataset — cubes, exact-query indexes — lives
// in the cache, keyed by the dataset's id and version.
type registry struct {
	mu   sync.RWMutex
	sets map[string]*dataset
	seq  atomic.Int64 // the last stream id allocated (see nextID)

	// createMu serializes whole stream creations, making the MaxStreams
	// check-then-create atomic without holding mu across the ring
	// allocation (lookups stay uncontended).
	createMu sync.Mutex
}

func newRegistry() *registry {
	return &registry{sets: map[string]*dataset{}}
}

// hashPoints content-addresses an event set: sha256 over the little-endian
// float64 triples, truncated to 16 hex characters.
func hashPoints(pts []grid.Point) string {
	h := sha256.New()
	var buf [24]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.T))
		h.Write(buf[:])
	}
	return "d" + hex.EncodeToString(h.Sum(nil))[:16]
}

// add registers an event set, returning the existing dataset when the same
// content was already ingested. The caller's slice is not copied; callers
// must not mutate it afterwards.
func (r *registry) add(pts []grid.Point) (*dataset, bool) {
	id := hashPoints(pts)
	r.mu.Lock()
	defer r.mu.Unlock()
	if ds, ok := r.sets[id]; ok {
		return ds, false
	}
	ds := &dataset{id: id, pts: pts, bounds: boundsOf(pts), added: time.Now()}
	r.sets[id] = ds
	return ds, true
}

// nextID allocates a stream id. Stream datasets are mutable, so their ids
// are sequence-allocated, not content-addressed.
func (r *registry) nextID() string {
	return fmt.Sprintf("s%016x", r.seq.Add(1))
}

// put registers a stream's dataset under its allocated id.
func (r *registry) put(ds *dataset) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sets[ds.id] = ds
}

// remove deletes a dataset from the registry (stream deletion).
func (r *registry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sets, id)
}

// get returns the dataset by id.
func (r *registry) get(id string) (*dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ds, ok := r.sets[id]
	return ds, ok
}

// count returns the number of registered datasets, streams included.
func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sets)
}

// list returns the registered datasets sorted by id.
func (r *registry) list() []*dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*dataset, 0, len(r.sets))
	for _, ds := range r.sets {
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// streamView reads the registry's live streams: the datasets whose st is
// non-nil.
type streamView struct{ r *registry }

// list returns the streams in id order.
func (v streamView) list() []*stream {
	var out []*stream
	for _, ds := range v.r.list() {
		if ds.st != nil {
			out = append(out, ds.st)
		}
	}
	return out
}

// count returns the number of live streams.
func (v streamView) count() int {
	v.r.mu.RLock()
	defer v.r.mu.RUnlock()
	n := 0
	for _, ds := range v.r.sets {
		if ds.st != nil {
			n++
		}
	}
	return n
}

// pinnedBytes is the byte total of all live windows (their rings, hidden
// layers included) held in this process (their specs never resize, so the
// creation spec's size is exact). Sharded windows keep theirs in the rank
// processes and are not counted.
func (v streamView) pinnedBytes() int64 {
	v.r.mu.RLock()
	defer v.r.mu.RUnlock()
	var sum int64
	for _, ds := range v.r.sets {
		if ds.st != nil && !ds.st.sharded {
			sum += core.WindowBytes(ds.st.base)
		}
	}
	return sum
}

// defaultDomain derives the domain used when a request omits one: the
// dataset's bounding box padded by one bandwidth on every side (the same
// derivation as cmd/stkde). It is deterministic, so requests that omit the
// domain agree on the cache key.
func (ds *dataset) defaultDomain(hs, ht float64) grid.Domain {
	lo, hi, _ := ds.boundsBox()
	return grid.Domain{
		X0: lo.X - hs, Y0: lo.Y - hs, T0: lo.T - ht,
		GX: hi.X - lo.X + 2*hs + 1e-9,
		GY: hi.Y - lo.Y + 2*hs + 1e-9,
		GT: hi.T - lo.T + 2*ht + 1e-9,
	}
}
