package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gio"
	"repro/internal/grid"
)

// streamTestDomain is the creation window of the stream fixtures: 20
// temporal layers that the tests slide past the creation extent.
var streamTestDomain = grid.Domain{GX: 40, GY: 30, GT: 20}

func streamTestSpec(t *testing.T) grid.Spec {
	t.Helper()
	spec, err := grid.NewSpec(streamTestDomain, 2, 1, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// createStream creates a live stream over streamTestDomain and returns its
// dataset id.
func createStream(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	body := `{"sres":2,"tres":1,"hs":6,"ht":3,
		"domain":{"x0":0,"y0":0,"t0":0,"gx":40,"gy":30,"gt":20}}`
	resp, err := http.Post(ts.URL+"/v1/streams", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sj streamJSON
	decodeBody(t, resp, &sj)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create stream status %d: %+v", resp.StatusCode, sj)
	}
	if !sj.Stream || sj.Dataset == "" {
		t.Fatalf("create stream returned %+v", sj)
	}
	return sj.Dataset
}

// get returns the live stream registered under id.
func (v streamView) get(id string) (*stream, bool) {
	ds, ok := v.r.get(id)
	if !ok || ds.st == nil {
		return nil, false
	}
	return ds.st, true
}

// postEvents ingests events into a stream and returns the response.
func postEvents(t *testing.T, ts *httptest.Server, id string, pts []grid.Point) streamJSON {
	t.Helper()
	var buf bytes.Buffer
	if err := gio.WritePoints(&buf, pts); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets/"+id+"/events", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var sj streamJSON
	decodeBody(t, resp, &sj)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest events status %d: %+v", resp.StatusCode, sj)
	}
	return sj
}

// advance slides a stream's window and returns the response.
func advance(t *testing.T, ts *httptest.Server, id string, to float64) streamJSON {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/datasets/"+id+"/advance", "application/json",
		strings.NewReader(fmt.Sprintf(`{"t":%g}`, to)))
	if err != nil {
		t.Fatal(err)
	}
	var sj streamJSON
	decodeBody(t, resp, &sj)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance status %d: %+v", resp.StatusCode, sj)
	}
	return sj
}

// streamEvents draws deterministic events around time t inside the stream
// domain.
func streamEvents(n int, around float64, seed uint64) []grid.Point {
	pts := make([]grid.Point, n)
	state := seed*2654435761 + 1
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>33) / float64(1<<31)
	}
	for i := range pts {
		pts[i] = grid.Point{
			X: next() * streamTestDomain.GX,
			Y: next() * streamTestDomain.GY,
			T: around - 2 + 4*next(),
		}
	}
	return pts
}

// queryDensity hits /v1/query and returns density and source.
func queryDensity(t *testing.T, ts *httptest.Server, id string, x, y, tm float64) (float64, string) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/query?dataset=%s&sres=2&tres=1&hs=6&ht=3&x=%g&y=%g&t=%g",
		ts.URL, id, x, y, tm)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Density float64 `json:"density"`
		Source  string  `json:"source"`
		Error   string  `json:"error"`
	}
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, out.Error)
	}
	return out.Density, out.Source
}

// TestStreamLifecycle walks the whole live path: create, ingest, query the
// in-place window against a batch estimate, slide the window past the
// creation domain, and query both inside and behind the moved window.
func TestStreamLifecycle(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := createStream(t, ts)

	pts := append(streamEvents(120, 6, 1), streamEvents(120, 14, 2)...)
	sj := postEvents(t, ts, id, pts)
	if sj.Points != len(pts) || sj.Added != len(pts) {
		t.Fatalf("ingest reported %+v, want points=added=%d", sj, len(pts))
	}

	// The live window must agree with a fresh batch estimate everywhere.
	spec := streamTestSpec(t)
	batch, err := core.Estimate(core.AlgPBSYM, pts, spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, vox := range [][3]int{{3, 4, 5}, {10, 7, 12}, {0, 0, 0}, {spec.Gx - 1, spec.Gy - 1, spec.Gt - 1}} {
		x, y, tm := spec.CenterX(vox[0]), spec.CenterY(vox[1]), spec.CenterT(vox[2])
		got, source := queryDensity(t, ts, id, x, y, tm)
		if source != "stream" {
			t.Fatalf("query at %v served from %q, want stream", vox, source)
		}
		if want := batch.Grid.At(vox[0], vox[1], vox[2]); math.Abs(got-want) > 1e-9 {
			t.Fatalf("live density at %v = %g, batch = %g", vox, got, want)
		}
	}

	// Region mass over the whole window: answered from the incremental
	// window sketch — no O(G) snapshot is materialized — and it must agree
	// with the batch grid.
	resp, err := http.Get(ts.URL + "/v1/region?dataset=" + id + "&sres=2&tres=1&hs=6&ht=3")
	if err != nil {
		t.Fatal(err)
	}
	var region struct {
		Mass   float64 `json:"mass"`
		Source string  `json:"source"`
		Error  string  `json:"error"`
	}
	decodeBody(t, resp, &region)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("region status %d: %s", resp.StatusCode, region.Error)
	}
	if region.Source != "sketch" {
		t.Fatalf("region source = %q, want sketch", region.Source)
	}
	if want := batch.Grid.BoxMass(spec.Bounds()); math.Abs(region.Mass-want) > 1e-9 {
		t.Fatalf("region mass = %g, batch = %g", region.Mass, want)
	}
	if got := s.met.sketchHits.Value(); got == 0 {
		t.Fatal("region did not use the sketch path")
	}
	if got := s.met.streamSnapshots.Value(); got != 0 {
		t.Fatalf("sketch-path region took %d O(G) snapshots", got)
	}

	// Hotspots from the same sketch: the top voxel matches a naive scan of
	// the batch grid.
	resp, err = http.Get(ts.URL + "/v1/hotspots?dataset=" + id + "&sres=2&tres=1&hs=6&ht=3&k=3")
	if err != nil {
		t.Fatal(err)
	}
	var hot struct {
		Hotspots []struct {
			Voxel   [3]int  `json:"voxel"`
			Density float64 `json:"density"`
		} `json:"hotspots"`
		Source string `json:"source"`
		Error  string `json:"error"`
	}
	decodeBody(t, resp, &hot)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hotspots status %d: %s", resp.StatusCode, hot.Error)
	}
	if hot.Source != "sketch" || len(hot.Hotspots) != 3 {
		t.Fatalf("hotspots = %d entries source=%q, want 3 from sketch", len(hot.Hotspots), hot.Source)
	}
	wantTop := batch.Grid.TopK(1)[0]
	if hot.Hotspots[0].Voxel != [3]int{wantTop.X, wantTop.Y, wantTop.T} {
		t.Fatalf("top hotspot %v, batch peak %v", hot.Hotspots[0].Voxel, wantTop)
	}
	if math.Abs(hot.Hotspots[0].Density-wantTop.V) > 1e-9 {
		t.Fatalf("top hotspot density %g, batch %g", hot.Hotspots[0].Density, wantTop.V)
	}

	// Slide the window 10 layers forward (past half the creation domain).
	adv := advance(t, ts, id, 29)
	if adv.Advanced != 10 {
		t.Fatalf("advanced %d layers, want 10 (%+v)", adv.Advanced, adv)
	}
	if adv.Window != [2]float64{10, 30} {
		t.Fatalf("window = %v, want [10 30)", adv.Window)
	}
	if adv.Expired == 0 || adv.Points >= len(pts) {
		t.Fatalf("no events expired on a 10-layer advance: %+v", adv)
	}

	// Inside the moved window — including times beyond the creation
	// domain — queries come from the ring and match a batch estimate over
	// the survivors on the advanced sub-spec.
	st, _ := s.streams.get(id)
	live := st.up.Live()
	wspec := st.up.Spec()
	batch2, err := core.Estimate(core.AlgPBSYM, live, wspec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, vox := range [][3]int{{5, 5, 2}, {8, 6, wspec.Gt - 1}} {
		x, y, tm := wspec.CenterX(vox[0]), wspec.CenterY(vox[1]), wspec.CenterT(vox[2])
		got, source := queryDensity(t, ts, id, x, y, tm)
		if source != "stream" {
			t.Fatalf("in-window query at t=%g served from %q, want stream", tm, source)
		}
		if want := batch2.Grid.At(vox[0], vox[1], vox[2]); math.Abs(got-want) > 1e-9 {
			t.Fatalf("post-advance density at %v = %g, batch = %g", vox, got, want)
		}
	}

	// Behind the window the ring cannot answer; the exact evaluator over
	// the live events takes over.
	if _, source := queryDensity(t, ts, id, 20, 15, 5); source != "exact" {
		t.Fatalf("behind-window query served from %q, want exact", source)
	}

	// Regression: even with the advanced window's snapshot resident in
	// the grid cache (warmed by an estimation job — region answers from
	// the sketch now and materializes nothing), a behind-window time must
	// not be served from it — VoxelOf would clamp the stale time onto
	// the window's first layer.
	wj := postEstimate(t, ts, fmt.Sprintf(`{"dataset":%q,"sres":2,"tres":1,"hs":6,"ht":3}`, id))
	if done := pollJob(t, ts, wj.Job); done.State != jobDone {
		t.Fatalf("snapshot warmup job failed: %s", done.Error)
	}
	if got := s.met.streamSnapshots.Value(); got == 0 {
		t.Fatal("estimation job did not warm a window snapshot into the cache")
	}
	got, source := queryDensity(t, ts, id, 20, 15, 5)
	if source != "exact" {
		t.Fatalf("behind-window query with resident snapshot served from %q, want exact", source)
	}
	idx := core.NewQuery(live, wspec, core.Options{})
	if want := idx.At(20, 15, 5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("behind-window density = %g, exact evaluator = %g", got, want)
	}
}

// TestStreamIngestInvalidatesExactly: mutating a stream drops exactly the
// affected dataset's cached grids and query indexes — a static dataset's
// stay resident.
func TestStreamIngestInvalidatesExactly(t *testing.T) {
	s, ts, staticID := testServer(t, Config{})
	streamID := createStream(t, ts)
	postEvents(t, ts, streamID, streamEvents(80, 10, 3))

	// Cache a grid for both datasets via estimation jobs (the region
	// endpoint answers streams from the incremental sketch and no longer
	// materializes a snapshot into the cache).
	for _, body := range []string{
		estimateBody(staticID, "pb-sym"),
		fmt.Sprintf(`{"dataset":%q,"algorithm":"pb-sym","sres":2,"tres":1,"hs":6,"ht":3}`, streamID),
	} {
		j := postEstimate(t, ts, body)
		if done := pollJob(t, ts, j.Job); done.State != jobDone {
			t.Fatalf("warmup job failed for %s: %s", body, done.Error)
		}
	}
	// Build an exact-query index for both (exact=1 forces it).
	for _, params := range []string{
		specParams(staticID, "pb-sym"),
		"dataset=" + streamID + "&algorithm=pb-sym&sres=2&tres=1&hs=6&ht=3",
	} {
		resp, err := http.Get(ts.URL + "/v1/query?" + params + "&x=10&y=10&t=10&exact=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exact warmup status %d for %s", resp.StatusCode, params)
		}
	}

	// One cache holds both kinds: an index is keyed with no algorithm.
	countEntries := func(id string) (grids, queries int) {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		for k := range s.cache.entries {
			switch {
			case k.Dataset != id:
			case k.Algorithm == "":
				queries++
			default:
				grids++
			}
		}
		return grids, queries
	}
	if g, q := countEntries(staticID); g == 0 || q == 0 {
		t.Fatalf("static warmup missing: grids=%d queries=%d", g, q)
	}
	if g, q := countEntries(streamID); g == 0 || q == 0 {
		t.Fatalf("stream warmup missing: grids=%d queries=%d", g, q)
	}

	postEvents(t, ts, streamID, streamEvents(10, 12, 4))

	if g, q := countEntries(streamID); g != 0 || q != 0 {
		t.Fatalf("stream caches survived ingest: grids=%d queries=%d", g, q)
	}
	if g, q := countEntries(staticID); g == 0 || q == 0 {
		t.Fatalf("ingest into the stream evicted the static dataset: grids=%d queries=%d", g, q)
	}
	if s.met.invalidations.Value() == 0 {
		t.Fatal("invalidation metric not incremented")
	}
}

// exactQuery answers GET /v1/query with exact=1 at (x, y, t) and returns
// the density, or an error unless the answer is a 200 from the exact
// evaluator. It does not touch t, so goroutines may call it.
func exactQuery(ts *httptest.Server, params string, x, y, t float64) (float64, error) {
	resp, err := http.Get(fmt.Sprintf("%s/v1/query?%s&x=%g&y=%g&t=%g&exact=1", ts.URL, params, x, y, t))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var answer struct {
		Density float64 `json:"density"`
		Source  string  `json:"source"`
		Error   string  `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || answer.Source != "exact" {
		return 0, fmt.Errorf("exact query %s: status %d source %q error %q", params, resp.StatusCode, answer.Source, answer.Error)
	}
	return answer.Density, nil
}

// indexEntries returns the resident exact-query indexes of the dataset and
// the bytes they charge.
func indexEntries(s *Server, id string) (n int, bytes int64) {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	for k, e := range s.cache.entries {
		if k.Dataset == id && k.Algorithm == "" {
			n++
			bytes += e.Value.(*cacheEntry).bytes
		}
	}
	return n, bytes
}

// TestQueryIndexCacheBudget: exact-query indexes are cache entries charged
// to the one budget. Exact queries over ten specs under a 64 KiB budget
// (two or three indexes fit) never leave it over its limit, evict in LRU
// order, and the resident indexes are what /healthz reports; an index over
// the whole budget still answers and is not cached. Every answer is the
// exact evaluator's.
func TestQueryIndexCacheBudget(t *testing.T) {
	s := New(Config{CacheBytes: 64 << 10})
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := ingest(t, ts, testPoints(500, 7))
	ds, _ := s.reg.get(id)
	b := s.cache.budgetHandle()
	check := func(hs, ht float64) estimateKey {
		t.Helper()
		params := fmt.Sprintf("dataset=%s&sres=2&tres=1&hs=%g&ht=%g&x0=0&y0=0&t0=0&gx=100&gy=80&gt=30", id, hs, ht)
		spec, err := grid.NewSpec(testDomain, 2, 1, hs, ht)
		if err != nil {
			t.Fatal(err)
		}
		q := core.NewQuery(ds.points(), spec, core.Options{})
		for _, p := range [][3]float64{{50, 40, 15}, {12.5, 70, 3}, {99, 1, 29}} {
			got, err := exactQuery(ts, params, p[0], p[1], p[2])
			if err != nil {
				t.Fatal(err)
			}
			if want := q.At(p[0], p[1], p[2]); got != want {
				t.Fatalf("hs=%g ht=%g at %v: density %g, core.Query.At %g", hs, ht, p, got, want)
			}
			if b.Used() > b.Limit() {
				t.Fatalf("hs=%g ht=%g: budget used %d over its limit %d", hs, ht, b.Used(), b.Limit())
			}
		}
		return estimateKey{Dataset: id, Spec: spec}
	}
	var keys []estimateKey
	for i := 0; i < 10; i++ {
		keys = append(keys, check(10+float64(i), 3))
	}
	n, bytes := indexEntries(s, id)
	if n < 2 || n >= 10 {
		t.Fatalf("%d indexes resident after ten specs, want some evicted and at least two kept", n)
	}
	if s.met.evictions.Value() == 0 {
		t.Fatal("ten indexes fit a 64 KiB budget; the test no longer exercises eviction")
	}
	for i, k := range keys {
		if resident, want := s.cache.contains(k), i >= len(keys)-n; resident != want {
			t.Fatalf("index %d of %d resident=%v, want %v (LRU keeps the %d newest)", i, len(keys), resident, want, n)
		}
	}
	health := func() (entries int, bytes int64) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Entries int   `json:"cache_entries"`
			Bytes   int64 `json:"cache_bytes"`
		}
		decodeBody(t, resp, &h)
		return h.Entries, h.Bytes
	}
	if entries, got := health(); entries != n || got != bytes {
		t.Fatalf("healthz cache_entries %d cache_bytes %d, want the %d resident indexes' %d bytes", entries, got, n, bytes)
	}

	// Bandwidths of 1 bin the domain into ~250k blocks: ~6 MB of slice
	// headers, far over the budget.
	uncacheable := s.met.uncacheable.Value()
	check(1, 1)
	if got, _ := indexEntries(s, id); got != n {
		t.Fatalf("oversized index changed the resident count from %d to %d", n, got)
	}
	if s.met.uncacheable.Value() != uncacheable+3 {
		t.Fatalf("cache_uncacheable = %d, want %d (one per oversized build)", s.met.uncacheable.Value(), uncacheable+3)
	}
}

// parkedCtx reports the first call of its Done method. On the exact-query
// path nothing calls it before the flight group, where a follower selects
// on it as it parks on the leader's call (the leader never does).
type parkedCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func (c *parkedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// TestQueryIndexCoalesces: concurrent cold exact queries on one dataset
// and spec build exactly one index. The leader's build is held until every
// other query has parked on its flight; a second build fails the test at
// once instead of waiting.
func TestQueryIndexCoalesces(t *testing.T) {
	s := New(Config{})
	var mu sync.Mutex
	var builds []estimateKey
	started, release, second := make(chan struct{}), make(chan struct{}), make(chan struct{})
	s.testHookEstimate = func(k estimateKey) {
		mu.Lock()
		builds = append(builds, k)
		n := len(builds)
		mu.Unlock()
		switch n {
		case 1:
			close(started)
			<-release
		case 2:
			close(second)
		}
	}
	ds, _ := s.addDataset(testPoints(500, 7))
	spec, err := grid.NewSpec(testDomain, 2, 1, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewQuery(ds.points(), spec, core.Options{}).At(50, 40, 15)
	url := "/v1/query?" + specParams(ds.id, core.AlgPBSYM) + "&x=50&y=40&t=15&exact=1"

	const n = 8
	answers := make(chan *httptest.ResponseRecorder, n)
	query := func(ctx context.Context) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx))
		answers <- w
	}
	go query(context.Background())
	<-started
	for i := 1; i < n; i++ {
		ctx := &parkedCtx{Context: context.Background(), parked: make(chan struct{})}
		go query(ctx)
		select {
		case <-ctx.parked:
		case <-second:
			t.Fatalf("query %d built a second index instead of joining the flight", i)
		}
	}
	close(release)
	for i := 0; i < n; i++ {
		w := <-answers
		var a struct {
			Density float64 `json:"density"`
			Source  string  `json:"source"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &a); err != nil || w.Code != http.StatusOK || a.Source != "exact" {
			t.Fatalf("answer %d: status %d %s (%v)", i, w.Code, w.Body, err)
		}
		if a.Density != want {
			t.Fatalf("answer %d: density %g, core.Query.At %g", i, a.Density, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(builds) != 1 || builds[0].Algorithm != "" {
		t.Fatalf("%d concurrent cold exact queries built %v, want one index (no algorithm)", n, builds)
	}
	if got, _ := indexEntries(s, ds.id); got != 1 {
		t.Fatalf("%d indexes resident, want 1", got)
	}
}

// TestQueryIndexBuildRacingStreamDelete: an index build held in flight
// while its stream is deleted publishes after the deletion dropped the
// stream's entries; it must find the id gone and drop its own entry, so
// nothing stays charged to the budget for a dead id.
func TestQueryIndexBuildRacingStreamDelete(t *testing.T) {
	s := New(Config{})
	started, release := make(chan struct{}), make(chan struct{})
	s.testHookEstimate = func(k estimateKey) {
		if k.Algorithm == "" {
			close(started)
			<-release
		}
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := createStream(t, ts)
	postEvents(t, ts, id, streamEvents(60, 10, 11))

	done := make(chan error, 1)
	go func() {
		_, err := exactQuery(ts, "dataset="+id+"&sres=2&tres=1&hs=6&ht=3", 20, 15, 8)
		done <- err
	}()
	<-started
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", resp.StatusCode)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n, _ := indexEntries(s, id); n != 0 {
		t.Fatalf("%d indexes of the deleted stream stay cached", n)
	}
	if entries, bytes, _ := s.cache.stats(); entries != 0 || bytes != 0 {
		t.Fatalf("cache holds %d entries, %d bytes after the only dataset was deleted", entries, bytes)
	}
}

// TestStreamMutationRejectedForStaticDatasets: content-addressed datasets
// are immutable.
func TestStreamMutationRejectedForStaticDatasets(t *testing.T) {
	_, ts, staticID := testServer(t, Config{})
	var buf bytes.Buffer
	if err := gio.WritePoints(&buf, streamEvents(5, 10, 6)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets/"+staticID+"/events", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mutating a static dataset returned %d, want %d", resp.StatusCode, http.StatusConflict)
	}
	resp, err = http.Post(ts.URL+"/v1/datasets/nope/events", "text/csv", strings.NewReader("1,2,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("mutating an unknown dataset returned %d, want 404", resp.StatusCode)
	}
}

// TestStreamDeletion: DELETE /v1/datasets/{id} releases the window ring's
// budget charge, drops every derived cache, frees the MaxStreams slot, and
// makes further mutations 404.
func TestStreamDeletion(t *testing.T) {
	s := New(Config{MaxStreams: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := createStream(t, ts)
	postEvents(t, ts, id, streamEvents(60, 10, 11))

	// Warm a cached grid so deletion has something to invalidate.
	resp, err := http.Get(ts.URL + "/v1/region?dataset=" + id + "&sres=2&tres=1&hs=6&ht=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, before, _ := s.cache.stats()
	if before == 0 {
		t.Fatal("warmup cached nothing")
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", resp.StatusCode)
	}
	if _, bytes, _ := s.cache.stats(); bytes != 0 {
		t.Fatalf("budget still charged %d bytes after deletion (ring or cached grids leaked)", bytes)
	}
	if s.streams.count() != 0 {
		t.Fatal("stream slot not freed")
	}
	if _, ok := s.reg.get(id); ok {
		t.Fatal("dataset still registered after deletion")
	}

	// Mutations on the dead id 404; the MaxStreams=1 slot is reusable.
	var buf bytes.Buffer
	if err := gio.WritePoints(&buf, streamEvents(2, 10, 12)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/datasets/"+id+"/events", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest into deleted stream returned %d, want 404", resp.StatusCode)
	}
	createStream(t, ts)
}

// TestNonFiniteEventsRejected: "NaN"/"Inf" parse as floats, but one such
// event would poison every derived density (for a stream, permanently —
// compaction re-applies it), so both ingestion paths reject them. A NaN
// query coordinate likewise must not slip past the stream fast path onto
// a clamped voxel.
func TestNonFiniteEventsRejected(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := createStream(t, ts)
	postEvents(t, ts, id, streamEvents(20, 5, 13))

	for _, path := range []string{"/v1/datasets", "/v1/datasets/" + id + "/events"} {
		for _, body := range []string{"NaN,5,5\n", "5,+Inf,5\n", "5,5,-Inf\n"} {
			resp, err := http.Post(ts.URL+path, "text/csv", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s with %q returned %d, want 400", path, strings.TrimSpace(body), resp.StatusCode)
			}
		}
	}
	// The stream is unpoisoned and NaN query coordinates fall back to the
	// exact evaluator (which yields 0), never a clamped stream voxel.
	if d, source := queryDensity(t, ts, id, math.NaN(), 5, 5); source == "stream" || d != 0 {
		t.Fatalf("NaN-x query returned (%g, %q), want (0, exact)", d, source)
	}
}

// TestStreamCreationValidation: missing domain and the MaxStreams cap are
// rejected.
func TestStreamCreationValidation(t *testing.T) {
	s := New(Config{MaxStreams: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/streams", "application/json",
		strings.NewReader(`{"sres":2,"tres":1,"hs":6,"ht":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("domainless stream returned %d, want 400", resp.StatusCode)
	}
	// Derived voxel counts at or past 2^52 (a huge bandwidth or extent, a
	// tiny resolution) are refused before any ring is sized from them.
	for _, body := range []string{
		`{"sres":2,"tres":1,"hs":1e300,"ht":3,"domain":{"x0":0,"y0":0,"t0":0,"gx":40,"gy":30,"gt":20}}`,
		`{"sres":2,"tres":1,"hs":6,"ht":1e300,"domain":{"x0":0,"y0":0,"t0":0,"gx":40,"gy":30,"gt":20}}`,
		`{"sres":1e-300,"tres":1,"hs":6,"ht":3,"domain":{"x0":0,"y0":0,"t0":0,"gx":40,"gy":30,"gt":20}}`,
		`{"sres":2,"tres":1,"hs":6,"ht":3,"domain":{"x0":0,"y0":0,"t0":0,"gx":1e300,"gy":30,"gt":20}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/streams", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("stream %s returned %d, want 400", body, resp.StatusCode)
		}
	}

	createStream(t, ts)
	resp, err = http.Post(ts.URL+"/v1/streams", "application/json",
		strings.NewReader(`{"sres":2,"tres":1,"hs":6,"ht":3,
			"domain":{"x0":0,"y0":0,"t0":0,"gx":40,"gy":30,"gt":20}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-limit stream returned %d, want 400", resp.StatusCode)
	}
}

// TestStreamConcurrentIngestAndQuery hammers one stream with concurrent
// ingests, window reads, and snapshot estimations; the race detector (CI
// runs the suite with -race) and a final batch comparison close the loop.
func TestStreamConcurrentIngestAndQuery(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := createStream(t, ts)
	postEvents(t, ts, id, streamEvents(50, 8, 7))

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() { // ingest workers
			defer wg.Done()
			for i := 0; i < 8; i++ {
				pts := streamEvents(10, float64(5+i), uint64(100+10*w+i))
				var buf bytes.Buffer
				if err := gio.WritePoints(&buf, pts); err != nil {
					errc <- err
					return
				}
				resp, err := http.Post(ts.URL+"/v1/datasets/"+id+"/events", "text/csv", &buf)
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("ingest status %d", resp.StatusCode)
				}
			}
		}()
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() { // query + region workers
			defer wg.Done()
			for i := 0; i < 20; i++ {
				url := fmt.Sprintf("%s/v1/query?dataset=%s&sres=2&tres=1&hs=6&ht=3&x=%d&y=%d&t=%d",
					ts.URL, id, 5+i%30, 5+i%20, i%20)
				resp, err := http.Get(url)
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("query status %d", resp.StatusCode)
				}
				if i%5 == 0 {
					resp, err := http.Get(ts.URL + "/v1/region?dataset=" + id + "&sres=2&tres=1&hs=6&ht=3")
					if err != nil {
						errc <- err
						return
					}
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesced stream must equal a batch estimate over its live events.
	st, _ := s.streams.get(id)
	live := st.up.Live()
	spec := st.up.Spec()
	batch, err := core.Estimate(core.AlgPBSYM, live, spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st.up.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.Data {
		if math.Abs(snap.Data[i]-batch.Grid.Data[i]) > 1e-9 {
			t.Fatalf("voxel %d drifted from batch after concurrent ingest", i)
		}
	}
}

// TestStreamStaleSnapshotNotCached: an estimation that races an ingest
// must not publish its stale grid where a request after the ingest finds
// it.
func TestStreamStaleSnapshotNotCached(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := createStream(t, ts)
	postEvents(t, ts, id, streamEvents(40, 10, 8))

	st, _ := s.streams.get(id)
	// Ask for a non-window spec so streamResult takes the batch path, and
	// mutate the stream while the estimation runs. Keys carry the dataset
	// version, so whatever the interleaving the estimation's grid is
	// keyed by the version before the ingest.
	spec, err := grid.NewSpec(streamTestDomain, 4, 2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := func() estimateKey {
		return estimateKey{Dataset: id, Version: st.ds.ver(), Spec: spec, Algorithm: core.AlgPBSYM}
	}
	k := key()
	done := make(chan struct{})
	go func() {
		defer close(done)
		postEvents(t, ts, id, streamEvents(10, 11, 9))
	}()
	if _, _, err := s.ensureGrid(context.Background(), k, defaultTenant, false); err != nil {
		t.Fatal(err)
	}
	<-done
	// Whatever the interleaving, the grid at the current version must
	// reflect the current events: re-request and compare against a fresh
	// batch.
	c, _, err := s.ensureGrid(context.Background(), key(), defaultTenant, false)
	if err != nil {
		t.Fatal(err)
	}
	res := c.res
	batch, err := core.Estimate(core.AlgPBSYM, st.ds.points(), spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Grid.Data {
		if math.Abs(res.Grid.Data[i]-batch.Grid.Data[i]) > 1e-9 {
			t.Fatalf("cached stream grid is stale at voxel %d", i)
		}
	}
}

// TestStreamEstimateAfterIngestStartsNewJob: an estimate requested after an
// acknowledged ingest names the new dataset version, so it starts its own
// job instead of joining one begun before the ingest, whose estimate may
// not hold the ingested events.
func TestStreamEstimateAfterIngestStartsNewJob(t *testing.T) {
	s := New(Config{Workers: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookEstimate = func(estimateKey) {
		first := false
		once.Do(func() {
			first = true
			close(started)
		})
		if first {
			<-release
		}
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := createStream(t, ts)
	postEvents(t, ts, id, streamEvents(40, 10, 8))

	// Not the window's spec, so every job runs a batch estimate.
	body := fmt.Sprintf(`{"dataset":%q,"algorithm":"pb-sym","sres":4,"tres":2,"hs":8,"ht":4,
		"domain":{"x0":0,"y0":0,"t0":0,"gx":40,"gy":30,"gt":20}}`, id)
	j1 := postEstimate(t, ts, body)
	<-started
	postEvents(t, ts, id, streamEvents(10, 11, 9))
	j2 := postEstimate(t, ts, body)
	close(release)
	if j1.Job == j2.Job {
		t.Fatalf("estimate after an acknowledged ingest joined job %s begun before it", j1.Job)
	}
	for _, j := range []jobJSON{j1, j2} {
		if done := pollJob(t, ts, j.Job); done.State != jobDone {
			t.Fatalf("job %s state %q: %s", j.Job, done.State, done.Error)
		}
	}
	if got := s.Estimations(); got != 2 {
		t.Fatalf("estimations = %d, want 2 (one per dataset version)", got)
	}
}

// TestStreamListingAndFallbackReadTheWindow: a stream's registry entry owns
// no events — the dataset listing (count, tight bounds) and the batch
// fallback for a spec that is not the window's are read from the live
// window on demand — so both must describe exactly the live events before
// an advance and exactly the survivors after one that expires some.
func TestStreamListingAndFallbackReadTheWindow(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := createStream(t, ts)
	early, late := streamEvents(25, 3, 4), streamEvents(30, 17, 5)
	postEvents(t, ts, id, early)
	postEvents(t, ts, id, late)

	// Coarser than the window spec: region answers come from a batch
	// estimate over the stream's current events, never from the ring.
	other, err := grid.NewSpec(streamTestDomain, 4, 2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	check := func(tag string, want []grid.Point) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/datasets")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Datasets []datasetJSON `json:"datasets"`
		}
		decodeBody(t, resp, &list)
		if len(list.Datasets) != 1 || list.Datasets[0].Dataset != id || !list.Datasets[0].Stream {
			t.Fatalf("%s: listing = %+v, want the one stream %s", tag, list.Datasets, id)
		}
		b := boundsOf(want)
		wantBounds := domainJSON{X0: b[0].X, Y0: b[0].Y, T0: b[0].T,
			GX: b[1].X - b[0].X, GY: b[1].Y - b[0].Y, GT: b[1].T - b[0].T}
		if got := list.Datasets[0]; got.Points != len(want) || got.Bounds != wantBounds {
			t.Fatalf("%s: listing says %d events in %+v, want %d in %+v", tag, got.Points, got.Bounds, len(want), wantBounds)
		}

		before := s.met.estimations.Value()
		resp, err = http.Get(fmt.Sprintf("%s/v1/region?dataset=%s&sres=4&tres=2&hs=8&ht=4&bx0=1&bx1=7&by0=0&by1=5&bt0=0&bt1=%d",
			ts.URL, id, other.Gt-1))
		if err != nil {
			t.Fatal(err)
		}
		var region struct {
			Mass  float64 `json:"mass"`
			Error string  `json:"error"`
		}
		decodeBody(t, resp, &region)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: region status %d: %s", tag, resp.StatusCode, region.Error)
		}
		if s.met.estimations.Value() != before+1 {
			t.Fatalf("%s: a non-window spec did not take the batch fallback", tag)
		}
		batch, err := core.Estimate(core.AlgPBSYM, want, other, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantMass := batch.Grid.BoxMass(grid.Box{X0: 1, X1: 7, Y0: 0, Y1: 5, T0: 0, T1: other.Gt - 1})
		if math.Abs(region.Mass-wantMass) > 1e-9*math.Max(1, math.Abs(wantMass)) {
			t.Fatalf("%s: fallback region mass %g, batch over the expected events %g", tag, region.Mass, wantMass)
		}
	}

	check("before the advance", append(append([]grid.Point{}, early...), late...))
	if sj := advance(t, ts, id, 29); sj.Expired != len(early) || sj.Points != len(late) {
		t.Fatalf("advance expired %d events leaving %d, want %d leaving %d", sj.Expired, sj.Points, len(early), len(late))
	}
	check("after the advance", late)

	// The advance's work counter surfaces next to the stream counters: no
	// event re-applied (none lay ahead of the window).
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	decodeBody(t, resp, &vars)
	if vars["stream_advance_reapplied"] != float64(0) {
		t.Fatalf("/debug/vars stream_advance_reapplied = %v, want 0", vars["stream_advance_reapplied"])
	}
	// Every ingested event reached the window, once per strip it spans.
	if n, ok := vars["stream_strip_applies"].(float64); !ok || n < float64(len(early)+len(late)) {
		t.Fatalf("/debug/vars stream_strip_applies = %v, want at least the %d events ingested", vars["stream_strip_applies"], len(early)+len(late))
	}
}
