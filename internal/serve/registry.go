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
// the version that keys every cube and query index derived from it.
type dataset struct {
	id    string
	added time.Time
	live  liveWindow // a stream's window; nil for batch datasets

	pts    []grid.Point  // batch datasets: immutable after add
	bounds [2]grid.Point // ... and their tight bounding box: min, max per axis

	version atomic.Int64 // bumped after every stream mutation
}

// points returns the current event snapshot, which must not be mutated.
// For a stream it is a copy of the window's live set.
func (ds *dataset) points() []grid.Point {
	if ds.live != nil {
		return ds.live.Live()
	}
	return ds.pts
}

// size returns the current event count.
func (ds *dataset) size() int {
	if ds.live != nil {
		return ds.live.N()
	}
	return len(ds.pts)
}

// boundsBox returns the tight bounding box of the current events and
// their count (for a stream, both from one read of the live set).
func (ds *dataset) boundsBox() (lo, hi grid.Point, n int) {
	if ds.live == nil {
		return ds.bounds[0], ds.bounds[1], len(ds.pts)
	}
	pts := ds.live.Live()
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
		expandBounds(&b, p)
	}
	return b
}

func expandBounds(b *[2]grid.Point, p grid.Point) {
	b[0].X, b[1].X = math.Min(b[0].X, p.X), math.Max(b[1].X, p.X)
	b[0].Y, b[1].Y = math.Min(b[0].Y, p.Y), math.Max(b[1].Y, p.Y)
	b[0].T, b[1].T = math.Min(b[0].T, p.T), math.Max(b[1].T, p.T)
}

// registry holds the registered datasets and a small cache of exact-query
// indexes (core.Query) keyed by dataset and spec, so repeated fallback
// queries do not rebuild the bandwidth-block bins.
type registry struct {
	mu      sync.RWMutex
	sets    map[string]*dataset
	queries map[queryKey]*core.Query
	// queryOrder tracks insertion order so the index cache stays bounded
	// (FIFO eviction at maxQueryIndexes entries).
	queryOrder []queryKey
}

// maxQueryIndexes bounds the exact-query index cache: each index holds
// O(n) point references plus its bin table, and a client sweeping
// bandwidths would otherwise grow it without limit in a long-running
// daemon.
const maxQueryIndexes = 64

// maxQueryBins bounds the bin table of a single exact-query index
// (~(GX/hs)·(GY/hs)·(GT/ht) slots): a request with a tiny bandwidth over
// a huge domain must not allocate an arbitrarily large table.
const maxQueryBins = 1 << 24

// queryKey identifies an exact-query index: the algorithm is irrelevant
// (core.Query evaluates the formula directly), only the dataset at its
// version (as in estimateKey) and the spec are.
type queryKey struct {
	Dataset string
	Version int64
	Spec    grid.Spec
}

func newRegistry() *registry {
	return &registry{
		sets:    map[string]*dataset{},
		queries: map[queryKey]*core.Query{},
	}
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

// addStream registers the mutable dataset of a live window under the
// given id (stream ids are allocated by the stream table, not
// content-addressed).
func (r *registry) addStream(id string, live liveWindow) *dataset {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := &dataset{id: id, live: live, added: time.Now()}
	r.sets[id] = ds
	return ds
}

// remove deletes a dataset from the registry (stream deletion).
func (r *registry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sets, id)
}

// invalidateQueries drops every exact-query index derived from the dataset,
// freeing the memory of indexes a stream mutation left unreachable. It
// returns the number dropped.
func (r *registry) invalidateQueries(id string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.queryOrder[:0]
	n := 0
	for _, k := range r.queryOrder {
		if k.Dataset == id {
			delete(r.queries, k)
			n++
			continue
		}
		kept = append(kept, k)
	}
	r.queryOrder = kept
	return n
}

// get returns the dataset by id.
func (r *registry) get(id string) (*dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ds, ok := r.sets[id]
	return ds, ok
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

// queryIndex returns (building on first use) the exact-query index for the
// dataset and spec, used by the /v1/query fallback path. The cache is
// bounded: oldest indexes are dropped past maxQueryIndexes, and a spec
// whose bin table would exceed maxQueryBins is rejected.
//
// The index is keyed by the dataset version read before the points, so it
// holds the events of that version or later, and a request after a stream
// mutation resolves a newer version instead of reaching it.
func (r *registry) queryIndex(ds *dataset, spec grid.Spec) (*core.Query, error) {
	k := queryKey{Dataset: ds.id, Version: ds.ver(), Spec: spec}
	r.mu.RLock()
	q, ok := r.queries[k]
	r.mu.RUnlock()
	if ok {
		return q, nil
	}
	d := spec.Domain
	bins := (d.GX/spec.HS + 1) * (d.GY/spec.HS + 1) * (d.GT/spec.HT + 1)
	if bins > maxQueryBins {
		return nil, fmt.Errorf("serve: exact query would bin the domain into %.0f blocks (limit %d); raise the bandwidths or shrink the domain", bins, maxQueryBins)
	}
	q = core.NewQuery(ds.points(), spec, core.Options{})
	r.mu.Lock()
	if prev, ok := r.queries[k]; ok { // racing builder won
		q = prev
	} else {
		for len(r.queryOrder) >= maxQueryIndexes {
			delete(r.queries, r.queryOrder[0])
			r.queryOrder = r.queryOrder[1:]
		}
		r.queries[k] = q
		r.queryOrder = append(r.queryOrder, k)
	}
	r.mu.Unlock()
	return q, nil
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
