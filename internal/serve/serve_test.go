package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gio"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/simd"
)

// Estimations returns the number of actual estimation runs performed (the
// coalescing counter: identical concurrent requests increment it once).
func (s *Server) Estimations() int64 { return s.met.estimations.Value() }

// CacheStats reports the grid cache occupancy: resident grids, bytes
// charged, and the configured byte budget.
func (s *Server) CacheStats() (entries int, bytes, limit int64) {
	return s.cache.stats()
}

// testDomain is the event domain of the test fixtures.
var testDomain = grid.Domain{GX: 100, GY: 80, GT: 30}

// testPoints generates a deterministic event set.
func testPoints(n int, seed uint64) []grid.Point {
	return data.Epidemic{}.Generate(n, testDomain, seed)
}

// testServer starts a Server on an httptest listener and ingests one
// dataset, returning both plus the dataset id.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	id := ingest(t, ts, testPoints(500, 7))
	return s, ts, id
}

func ingest(t *testing.T, ts *httptest.Server, pts []grid.Point) string {
	t.Helper()
	var buf bytes.Buffer
	if err := gio.WritePoints(&buf, pts); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var ds datasetJSON
	decodeBody(t, resp, &ds)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	return ds.Dataset
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
}

// estimateBody builds the canonical estimate request used by the tests:
// sres/tres/hs/ht over the fixture domain.
func estimateBody(dataset, algorithm string) string {
	return fmt.Sprintf(`{"dataset":%q,"algorithm":%q,"sres":2,"tres":1,"hs":10,"ht":3,
		"domain":{"x0":0,"y0":0,"t0":0,"gx":100,"gy":80,"gt":30}}`, dataset, algorithm)
}

// specParams is the query-string equivalent of estimateBody.
func specParams(dataset, algorithm string) string {
	return fmt.Sprintf("dataset=%s&algorithm=%s&sres=2&tres=1&hs=10&ht=3&x0=0&y0=0&t0=0&gx=100&gy=80&gt=30",
		dataset, algorithm)
}

// postEstimate fires one estimate request and returns the job snapshot.
func postEstimate(t *testing.T, ts *httptest.Server, body string) jobJSON {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var j jobJSON
	decodeBody(t, resp, &j)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d: %+v", resp.StatusCode, j)
	}
	return j
}

// pollJob polls until the job leaves the running state.
func pollJob(t *testing.T, ts *httptest.Server, id string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j jobJSON
		decodeBody(t, resp, &j)
		if j.State != jobRunning {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobJSON{}
}

func TestIngestIsContentAddressedAndIdempotent(t *testing.T) {
	s, ts, id := testServer(t, Config{})
	id2 := ingest(t, ts, testPoints(500, 7))
	if id2 != id {
		t.Fatalf("re-ingest changed id: %s vs %s", id2, id)
	}
	if got := s.met.datasets.Value(); got != 1 {
		t.Fatalf("datasets metric = %d, want 1", got)
	}
	other := ingest(t, ts, testPoints(500, 8))
	if other == id {
		t.Fatal("different content produced the same id")
	}
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Datasets []datasetJSON `json:"datasets"`
	}
	decodeBody(t, resp, &list)
	if len(list.Datasets) != 2 {
		t.Fatalf("list has %d datasets, want 2", len(list.Datasets))
	}
}

// TestEstimateCoalescing is acceptance criterion (a): two concurrent
// identical estimate requests perform exactly one estimation.
func TestEstimateCoalescing(t *testing.T) {
	s := New(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookEstimate = func(estimateKey) {
		once.Do(func() { close(started) })
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := ingest(t, ts, testPoints(500, 7))

	body := estimateBody(id, core.AlgPBSYM)
	type outcome struct {
		j   jobJSON
		err error
	}
	jobs := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
			if err != nil {
				jobs <- outcome{err: err}
				return
			}
			defer resp.Body.Close()
			var o outcome
			o.err = json.NewDecoder(resp.Body).Decode(&o.j)
			jobs <- o
		}()
	}
	o1, o2 := <-jobs, <-jobs
	if o1.err != nil || o2.err != nil {
		t.Fatalf("concurrent posts: %v / %v", o1.err, o2.err)
	}
	j1, j2 := o1.j, o2.j
	if j1.Job != j2.Job {
		t.Fatalf("identical requests got different jobs: %s vs %s", j1.Job, j2.Job)
	}
	<-started // the single estimation is in flight while both handles exist
	close(release)
	done := pollJob(t, ts, j1.Job)
	if done.State != jobDone {
		t.Fatalf("job state %q: %s", done.State, done.Error)
	}
	if got := s.Estimations(); got != 1 {
		t.Fatalf("coalescing counter = %d estimations, want exactly 1", got)
	}
}

// TestQueryAgreesWithExact is acceptance criterion (b): once cached, a
// voxel query is served from the grid without re-estimation and agrees
// with core.Query.At to 1e-9.
func TestQueryAgreesWithExact(t *testing.T) {
	s, ts, id := testServer(t, Config{})
	j := postEstimate(t, ts, estimateBody(id, core.AlgPBSYM))
	done := pollJob(t, ts, j.Job)
	if done.State != jobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	runs := s.Estimations()
	if runs != 1 {
		t.Fatalf("estimations = %d, want 1", runs)
	}

	spec, err := grid.NewSpec(testDomain, 2, 1, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	exact := core.NewQuery(testPoints(500, 7), spec, core.Options{})
	for _, vox := range [][3]int{{0, 0, 0}, {10, 20, 5}, {25, 13, 29}, {49, 39, 15}} {
		x, y, tt := spec.CenterX(vox[0]), spec.CenterY(vox[1]), spec.CenterT(vox[2])
		url := fmt.Sprintf("%s/v1/query?%s&x=%g&y=%g&t=%g", ts.URL, specParams(id, core.AlgPBSYM), x, y, tt)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Density float64 `json:"density"`
			Source  string  `json:"source"`
			Voxel   [3]int  `json:"voxel"`
		}
		decodeBody(t, resp, &out)
		if out.Source != "grid" {
			t.Fatalf("voxel %v served from %q, want the cached grid", vox, out.Source)
		}
		if out.Voxel != vox {
			t.Fatalf("voxel = %v, want %v", out.Voxel, vox)
		}
		want := exact.At(x, y, tt)
		if math.Abs(out.Density-want) > 1e-9 {
			t.Fatalf("voxel %v: grid density %g vs exact %g (diff %g)",
				vox, out.Density, want, out.Density-want)
		}
	}
	if got := s.Estimations(); got != runs {
		t.Fatalf("queries triggered %d re-estimations", got-runs)
	}
}

// TestQueryExactFallback: with no cached grid the query endpoint answers
// from the exact evaluator and never estimates.
func TestQueryExactFallback(t *testing.T) {
	s, ts, id := testServer(t, Config{})
	spec, err := grid.NewSpec(testDomain, 2, 1, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	exact := core.NewQuery(testPoints(500, 7), spec, core.Options{})
	x, y, tt := 51.0, 37.5, 14.5
	url := fmt.Sprintf("%s/v1/query?%s&x=%g&y=%g&t=%g", ts.URL, specParams(id, core.AlgPBSYM), x, y, tt)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Density float64 `json:"density"`
		Source  string  `json:"source"`
	}
	decodeBody(t, resp, &out)
	if out.Source != "exact" {
		t.Fatalf("source = %q, want exact", out.Source)
	}
	if want := exact.At(x, y, tt); math.Abs(out.Density-want) > 1e-12 {
		t.Fatalf("density %g, want %g", out.Density, want)
	}
	if got := s.Estimations(); got != 0 {
		t.Fatalf("query fallback triggered %d estimations", got)
	}
}

// TestCacheLRUEviction is acceptance criterion (c): the cache never holds
// more bytes than its budget, evicting least-recently-used grids.
func TestCacheLRUEviction(t *testing.T) {
	spec, err := grid.NewSpec(testDomain, 2, 1, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Budget admits exactly two grids of this spec.
	s, ts, id := testServer(t, Config{CacheBytes: 2 * spec.Bytes()})
	algos := []string{core.AlgPB, core.AlgPBDISK, core.AlgPBBAR, core.AlgPBSYM}
	for _, alg := range algos {
		j := postEstimate(t, ts, estimateBody(id, alg))
		done := pollJob(t, ts, j.Job)
		if done.State != jobDone {
			t.Fatalf("%s job failed: %s", alg, done.Error)
		}
		entries, bytes, limit := s.CacheStats()
		if bytes > limit {
			t.Fatalf("cache holds %d bytes over the %d budget", bytes, limit)
		}
		if entries > 2 {
			t.Fatalf("cache holds %d grids, budget only admits 2", entries)
		}
	}
	entries, bytes, limit := s.CacheStats()
	if entries != 2 || bytes != 2*spec.Bytes() {
		t.Fatalf("cache = %d entries / %d bytes, want 2 / %d", entries, bytes, 2*spec.Bytes())
	}
	if evicted := s.met.evictions.Value(); evicted != int64(len(algos)-2) {
		t.Fatalf("evictions = %d, want %d", evicted, len(algos)-2)
	}
	_ = limit
	// The two most recently used survive; the oldest were evicted, so
	// re-estimating the oldest is a cache miss (a fresh estimation).
	runs := s.Estimations()
	j := postEstimate(t, ts, estimateBody(id, algos[0]))
	if done := pollJob(t, ts, j.Job); done.State != jobDone {
		t.Fatalf("re-estimate failed: %s", done.Error)
	}
	if got := s.Estimations(); got != runs+1 {
		t.Fatalf("evicted grid was served without re-estimation (runs %d -> %d)", runs, got)
	}
	// And the newest is still resident: its finished job is reused and no
	// estimation runs.
	runs = s.Estimations()
	if j := postEstimate(t, ts, estimateBody(id, algos[len(algos)-1])); j.State != jobDone {
		t.Fatalf("expected completed job for resident grid, got %+v", j)
	}
	if got := s.Estimations(); got != runs {
		t.Fatal("cache hit re-estimated")
	}
}

// TestUncacheableGrid: a grid larger than the whole budget is computed and
// served but never cached.
func TestUncacheableGrid(t *testing.T) {
	s, ts, id := testServer(t, Config{CacheBytes: 1024})
	j := postEstimate(t, ts, estimateBody(id, core.AlgPBSYM))
	if done := pollJob(t, ts, j.Job); done.State != jobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if entries, bytes, _ := s.CacheStats(); entries != 0 || bytes != 0 {
		t.Fatalf("oversized grid was cached (%d entries, %d bytes)", entries, bytes)
	}
	if got := s.met.uncacheable.Value(); got != 1 {
		t.Fatalf("uncacheable metric = %d, want 1", got)
	}
}

// TestGracefulShutdownDrains is acceptance criterion (d): Shutdown refuses
// new jobs but completes the in-flight estimation, landing its grid in the
// cache.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	s.testHookEstimate = func(estimateKey) {
		close(started)
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := ingest(t, ts, testPoints(500, 7))

	j := postEstimate(t, ts, estimateBody(id, core.AlgPBSYM))
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// New estimations are refused while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
			strings.NewReader(estimateBody(id, core.AlgPB)))
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("estimate during shutdown returned %d, want 503", code)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	done := pollJob(t, ts, j.Job)
	if done.State != jobDone {
		t.Fatalf("in-flight job not drained: state %q (%s)", done.State, done.Error)
	}
	if entries, _, _ := s.CacheStats(); entries != 1 {
		t.Fatalf("drained grid not cached (%d entries)", entries)
	}
}

// TestShutdownDeadline: a context that expires before the in-flight job
// completes surfaces an error.
func TestShutdownDeadline(t *testing.T) {
	s := New(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	s.testHookEstimate = func(estimateKey) {
		close(started)
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := ingest(t, ts, testPoints(200, 3))
	postEstimate(t, ts, estimateBody(id, core.AlgPBSYM))
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown succeeded with an estimation still in flight")
	}
	close(release)
}

func TestRegionAndHotspots(t *testing.T) {
	s, ts, id := testServer(t, Config{})
	params := specParams(id, core.AlgPBSYM)

	// Region over the full grid equals the job's reported mass.
	resp, err := http.Get(ts.URL + "/v1/region?" + params)
	if err != nil {
		t.Fatal(err)
	}
	var region struct {
		Mass   float64 `json:"mass"`
		Voxels int     `json:"voxels"`
		Cached bool    `json:"cached"`
	}
	decodeBody(t, resp, &region)
	if region.Cached {
		t.Fatal("first region request claims a cache hit")
	}
	j := postEstimate(t, ts, estimateBody(id, core.AlgPBSYM))
	if j.State != jobDone {
		j = pollJob(t, ts, j.Job)
	}
	if math.Abs(region.Mass-j.Mass) > 1e-12 {
		t.Fatalf("region mass %g != job mass %g", region.Mass, j.Mass)
	}
	if got := s.Estimations(); got != 1 {
		t.Fatalf("region + estimate ran %d estimations, want 1 (coalesced/cached)", got)
	}

	// A sub-box has strictly less mass; an empty request errors.
	resp, err = http.Get(ts.URL + "/v1/region?" + params + "&bx0=0&bx1=9&by0=0&by1=9&bt0=0&bt1=9")
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		Mass   float64 `json:"mass"`
		Voxels int     `json:"voxels"`
		Cached bool    `json:"cached"`
	}
	decodeBody(t, resp, &sub)
	if !sub.Cached {
		t.Fatal("second region request missed the cache")
	}
	if sub.Voxels != 1000 || sub.Mass >= region.Mass {
		t.Fatalf("sub-box = %d voxels mass %g, want 1000 voxels with mass < %g",
			sub.Voxels, sub.Mass, region.Mass)
	}

	// Hotspots: top-1 is the grid's peak voxel.
	resp, err = http.Get(ts.URL + "/v1/hotspots?" + params + "&k=5")
	if err != nil {
		t.Fatal(err)
	}
	var hot struct {
		Hotspots []struct {
			Voxel   [3]int  `json:"voxel"`
			Density float64 `json:"density"`
		} `json:"hotspots"`
		Cached bool `json:"cached"`
	}
	decodeBody(t, resp, &hot)
	if len(hot.Hotspots) != 5 || !hot.Cached {
		t.Fatalf("hotspots = %d entries cached=%v, want 5 from cache", len(hot.Hotspots), hot.Cached)
	}
	if hot.Hotspots[0].Voxel != [3]int{j.PeakVoxel[0], j.PeakVoxel[1], j.PeakVoxel[2]} {
		t.Fatalf("top hotspot %v != peak voxel %v", hot.Hotspots[0].Voxel, j.PeakVoxel)
	}
	if math.Abs(hot.Hotspots[0].Density-j.Peak) > 1e-12 {
		t.Fatalf("top hotspot density %g != peak %g", hot.Hotspots[0].Density, j.Peak)
	}
	for i := 1; i < len(hot.Hotspots); i++ {
		if hot.Hotspots[i].Density > hot.Hotspots[i-1].Density {
			t.Fatal("hotspots not in descending density order")
		}
	}
}

// TestSketchAnalytics: region and hotspot answers come from the analytics
// sketches (source "sketch"), agree with the naive O(G) scans to <= 1e-9,
// survive stream mutations through incremental dirty-block repair, and are
// metered by the sketch_hits / sketch_rebuilds expvars.
func TestSketchAnalytics(t *testing.T) {
	s, ts, id := testServer(t, Config{})
	params := specParams(id, core.AlgPBSYM)

	// The naive reference: the same sequential estimate the server runs.
	spec, err := grid.NewSpec(testDomain, 2, 1, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Estimate(core.AlgPBSYM, testPoints(500, 7), spec, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}

	var region struct {
		Mass   float64 `json:"mass"`
		Source string  `json:"source"`
	}
	for _, box := range []string{"", "&bx0=3&bx1=31&by0=2&by1=17&bt0=1&bt1=28", "&bx0=5&bx1=5&by0=6&by1=6&bt0=7&bt1=7"} {
		resp, err := http.Get(ts.URL + "/v1/region?" + params + box)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, &region)
		if region.Source != "sketch" {
			t.Fatalf("region%s source = %q, want sketch", box, region.Source)
		}
		b := spec.Bounds()
		if box != "" {
			if _, err := fmt.Sscanf(box, "&bx0=%d&bx1=%d&by0=%d&by1=%d&bt0=%d&bt1=%d",
				&b.X0, &b.X1, &b.Y0, &b.Y1, &b.T0, &b.T1); err != nil {
				t.Fatal(err)
			}
		}
		want := ref.Grid.BoxMass(b)
		if math.Abs(region.Mass-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("region%s mass %g, naive scan %g", box, region.Mass, want)
		}
	}

	var hot struct {
		Hotspots []struct {
			Voxel   [3]int  `json:"voxel"`
			Density float64 `json:"density"`
		} `json:"hotspots"`
		Source string `json:"source"`
	}
	resp, err := http.Get(ts.URL + "/v1/hotspots?" + params + "&k=7")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &hot)
	if hot.Source != "sketch" {
		t.Fatalf("hotspots source = %q, want sketch", hot.Source)
	}
	naiveTop := ref.Grid.TopK(7)
	for i, h := range hot.Hotspots {
		if h.Voxel != [3]int{naiveTop[i].X, naiveTop[i].Y, naiveTop[i].T} {
			t.Fatalf("hotspot %d voxel %v, naive scan %v", i, h.Voxel, naiveTop[i])
		}
		if math.Abs(h.Density-naiveTop[i].V) > 1e-9 {
			t.Fatalf("hotspot %d density %g, naive scan %g", i, h.Density, naiveTop[i].V)
		}
	}

	// Stream analytics stay exact across mutations: answers after a second
	// ingest reflect the new events through dirty-block repair alone.
	streamID := createStream(t, ts)
	postEvents(t, ts, streamID, streamEvents(100, 8, 5))
	streamParams := "dataset=" + streamID + "&sres=2&tres=1&hs=6&ht=3"
	resp, err = http.Get(ts.URL + "/v1/region?" + streamParams)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &region)
	if region.Source != "sketch" {
		t.Fatalf("stream region source = %q, want sketch", region.Source)
	}
	rebuildsAfterWarm := s.met.sketchRebuilds.Value()
	postEvents(t, ts, streamID, streamEvents(40, 12, 6))
	resp, err = http.Get(ts.URL + "/v1/region?" + streamParams)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &region)
	st, _ := s.streams.get(streamID)
	wspec := st.up.Spec()
	batch, err := core.Estimate(core.AlgPBSYM, st.up.Live(), wspec, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := batch.Grid.BoxMass(wspec.Bounds()); math.Abs(region.Mass-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("post-ingest stream region mass %g, batch %g", region.Mass, want)
	}
	if got := s.met.sketchRebuilds.Value(); got <= rebuildsAfterWarm {
		t.Fatal("second ingest did not trigger an incremental dirty-block rebuild")
	}
	if got := s.met.streamSnapshots.Value(); got != 0 {
		t.Fatalf("stream analytics took %d O(G) snapshots, want 0", got)
	}

	// The counters surface through the expvar endpoint.
	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	decodeBody(t, resp, &vars)
	for _, name := range []string{"sketch_hits", "sketch_rebuilds"} {
		v, ok := vars[name].(float64)
		if !ok || v <= 0 {
			t.Fatalf("expvar %s = %v, want a positive counter", name, vars[name])
		}
	}
}

// TestSketchBudgetFallback: when the cache budget cannot host a pyramid
// next to its grid, the endpoints fall back to the exact naive scans with
// source "grid" — correctness is never traded for the speedup.
func TestSketchBudgetFallback(t *testing.T) {
	spec, err := grid.NewSpec(testDomain, 2, 1, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Estimate(core.AlgPBSYM, testPoints(500, 7), spec, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var region struct {
		Mass   float64 `json:"mass"`
		Source string  `json:"source"`
	}
	// Room for one grid but not for grid + pyramid: the grid is cached
	// alone and scanned. Room for exactly both: a job caches them as one
	// entry, charged once, and a job on a second key evicts that entry.
	pair := spec.Bytes() + grid.PyramidBytes(spec)
	for _, tc := range []struct {
		budget int64
		source string
	}{{spec.Bytes() + spec.Bytes()/2, "grid"}, {pair, "sketch"}} {
		s, ts, id := testServer(t, Config{CacheBytes: tc.budget})
		job := func(alg string) {
			t.Helper()
			if j := postEstimate(t, ts, estimateBody(id, alg)); pollJob(t, ts, j.Job).State != jobDone {
				t.Fatalf("%s estimate failed", alg)
			}
			if entries, bytes, _ := s.CacheStats(); entries != 1 || bytes != pair {
				t.Fatalf("%s job left %d entries, %d bytes; want 1 entry of %d (grid + pyramid)", alg, entries, bytes, pair)
			}
		}
		if tc.source == "sketch" {
			job(core.AlgPBSYM)
		}
		params := specParams(id, core.AlgPBSYM)
		resp, err := http.Get(ts.URL + "/v1/region?" + params)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, &region)
		if region.Source != tc.source {
			t.Fatalf("region source = %q, want %q", region.Source, tc.source)
		}
		if want := ref.Grid.BoxMass(spec.Bounds()); math.Abs(region.Mass-want) > 1e-12 {
			t.Fatalf("%s region mass %g, naive %g", tc.source, region.Mass, want)
		}
		if entries, bytes, limit := s.CacheStats(); bytes > limit || entries != 1 {
			t.Fatalf("fallback disturbed the cache: %d entries, %d/%d bytes", entries, bytes, limit)
		}
		if tc.source == "sketch" {
			job(core.AlgPB)
			if got := s.met.evictions.Value(); got != 1 {
				t.Fatalf("evictions = %d, want 1", got)
			}
		}
	}

	// A local stream window whose ring fits but whose ring sketch does not:
	// the read evicts cached cubes and retries once. With nothing to evict
	// it answers from a snapshot scan (source "grid"); when an evictable
	// cube holds the room, the retry answers from the sketch.
	for _, tc := range []struct {
		name   string
		cube   bool
		source string
	}{{"nothing to evict", false, "grid"}, {"evict a cube", true, "sketch"}} {
		s, ts, id := testServer(t, Config{CacheBytes: 1 << 20})
		streamID := createStream(t, ts)
		postEvents(t, ts, streamID, streamEvents(100, 8, 5))
		if tc.cube {
			if j := postEstimate(t, ts, estimateBody(id, core.AlgPBSYM)); pollJob(t, ts, j.Job).State != jobDone {
				t.Fatalf("%s: estimate failed", tc.name)
			}
		}
		// An in-flight charge nobody can evict leaves one byte too few
		// for the sketch.
		st, _ := s.streams.get(streamID)
		b := s.cache.budgetHandle()
		hold := b.Limit() - b.Used() - grid.RingSketchBytes(st.base) + 1
		if err := b.Alloc(hold); err != nil {
			t.Fatal(err)
		}
		snap, err := st.up.Snapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		evictions := s.met.evictions.Value()
		params := "dataset=" + streamID + "&sres=2&tres=1&hs=6&ht=3"
		box := grid.Box{X0: 3, X1: 11, Y0: 2, Y1: 9, T0: 1, T1: 12}
		resp, err := http.Get(fmt.Sprintf("%s/v1/region?%s&bx0=%d&bx1=%d&by0=%d&by1=%d&bt0=%d&bt1=%d",
			ts.URL, params, box.X0, box.X1, box.Y0, box.Y1, box.T0, box.T1))
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, &region)
		want := snap.BoxMass(box)
		if region.Source != tc.source || math.Abs(region.Mass-want) > 1e-9*math.Abs(want) ||
			(tc.source == "grid" && region.Mass != want) {
			t.Fatalf("%s: region = %+v, want source %q and the snapshot's mass %g", tc.name, region, tc.source, want)
		}
		var hot struct {
			Hotspots []hotspotJSON `json:"hotspots"`
			Source   string        `json:"source"`
		}
		resp, err = http.Get(ts.URL + "/v1/hotspots?" + params + "&k=5")
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, &hot)
		if hot.Source != tc.source {
			t.Fatalf("%s: hotspots source = %q, want %q", tc.name, hot.Source, tc.source)
		}
		for i, h := range snap.TopK(5) {
			got := hot.Hotspots[i]
			if got.Voxel != [3]int{h.X, h.Y, h.T} || math.Abs(got.Density-h.V) > 1e-9*h.V ||
				(tc.source == "grid" && got.Density != h.V) {
				t.Fatalf("%s: hotspot %d = %+v, snapshot scan %+v", tc.name, i, got, h)
			}
		}
		if rose := s.met.evictions.Value() > evictions; rose != tc.cube {
			t.Fatalf("%s: cache_evictions %d -> %d", tc.name, evictions, s.met.evictions.Value())
		}
		// Only the ring sketch answers without an O(G) snapshot (a cached
		// snapshot's pyramid would also say "sketch").
		if snaps := s.met.streamSnapshots.Value(); (snaps == 0) != tc.cube {
			t.Fatalf("%s: %d stream snapshots", tc.name, snaps)
		}
		b.Free(hold)
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts, id := testServer(t, Config{})
	for _, tc := range []struct {
		name string
		do   func() (*http.Response, error)
		code int
	}{
		{"bad csv", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/datasets", "text/csv", strings.NewReader("x,y\n1,2\n"))
		}, http.StatusBadRequest},
		{"unknown dataset", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/estimate", "application/json",
				strings.NewReader(estimateBody("nope", core.AlgPBSYM)))
		}, http.StatusBadRequest},
		{"unknown algorithm", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/estimate", "application/json",
				strings.NewReader(estimateBody(id, "quantum")))
		}, http.StatusBadRequest},
		{"bad estimate body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader("{"))
		}, http.StatusBadRequest},
		{"unknown job", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/jobs/jdeadbeef")
		}, http.StatusNotFound},
		{"query missing params", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/query?dataset=" + id)
		}, http.StatusBadRequest},
		{"estimate wrong method", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/estimate")
		}, http.StatusMethodNotAllowed},
		{"hotspots bad k", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/hotspots?" + specParams(id, core.AlgPBSYM) + "&k=-1")
		}, http.StatusBadRequest},
		{"query NaN hs", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/query?" + strings.Replace(specParams(id, core.AlgPBSYM), "hs=10", "hs=NaN", 1) + "&x=50&y=40&t=15")
		}, http.StatusBadRequest},
		{"region NaN x0", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/region?" + strings.Replace(specParams(id, core.AlgPBSYM), "x0=0", "x0=NaN", 1))
		}, http.StatusBadRequest},
		{"hotspots NaN x0", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/hotspots?" + strings.Replace(specParams(id, core.AlgPBSYM), "x0=0", "x0=NaN", 1))
		}, http.StatusBadRequest},
		{"query huge hs", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/query?" + strings.Replace(specParams(id, core.AlgPBSYM), "hs=10", "hs=1e300", 1) + "&x=50&y=40&t=15")
		}, http.StatusBadRequest},
		{"region Inf ht", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/region?" + strings.Replace(specParams(id, core.AlgPBSYM), "ht=3", "ht=Inf", 1))
		}, http.StatusBadRequest},
		{"estimate huge hs", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/estimate", "application/json",
				strings.NewReader(strings.Replace(estimateBody(id, core.AlgPBSYM), `"hs":10`, `"hs":1e300`, 1)))
		}, http.StatusBadRequest},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var e struct {
			Error string `json:"error"`
		}
		decodeBody(t, resp, &e)
		if resp.StatusCode != tc.code || e.Error == "" {
			t.Errorf("%s: status %d error %q, want %d with a message", tc.name, resp.StatusCode, e.Error, tc.code)
		}
	}
}

// TestHostileReadParams: a hotspot k past maxHotspots is refused with a
// 400 naming the bound (an unbounded k selects and sends every voxel),
// k = maxHotspots itself is answered, and a region box that is inverted or
// lies outside the grid is an empty region — 200, mass 0, no voxels — on a
// static dataset and on a stream window alike.
func TestHostileReadParams(t *testing.T) {
	_, ts, id := testServer(t, Config{})
	sid := createStream(t, ts)
	postEvents(t, ts, sid, streamEvents(100, 8, 5))
	for _, ds := range []struct {
		name, params string
		voxels       int
	}{
		{"static", specParams(id, core.AlgPBSYM), 50 * 40 * 30},
		{"stream", "dataset=" + sid + "&sres=2&tres=1&hs=6&ht=3", 20 * 15 * 20},
	} {
		get := func(endpoint, extra string, v any) int {
			t.Helper()
			resp, err := http.Get(ts.URL + endpoint + "?" + ds.params + extra)
			if err != nil {
				t.Fatal(err)
			}
			decodeBody(t, resp, v)
			return resp.StatusCode
		}
		for _, k := range []string{"9223372036854775807", "10001"} {
			var e struct{ Error string }
			if code := get("/v1/hotspots", "&k="+k, &e); code != http.StatusBadRequest || !strings.Contains(e.Error, "10000") {
				t.Errorf("%s k=%s: status %d error %q, want 400 naming the bound", ds.name, k, code, e.Error)
			}
		}
		var hot struct{ Hotspots []hotspotJSON }
		if code := get("/v1/hotspots", "&k=10000", &hot); code != http.StatusOK || len(hot.Hotspots) != min(10000, ds.voxels) {
			t.Errorf("%s k=10000: status %d, %d hotspots, want %d", ds.name, code, len(hot.Hotspots), min(10000, ds.voxels))
		}
		for _, box := range []string{"bx0=9&bx1=3", "bt0=5&bt1=4", "bx0=10000"} {
			var reg struct {
				Mass   float64
				Voxels int
			}
			if code := get("/v1/region", "&"+box, &reg); code != http.StatusOK || reg.Mass != 0 || reg.Voxels != 0 {
				t.Errorf("%s region %s: status %d mass %g voxels %d, want 200, 0, 0", ds.name, box, code, reg.Mass, reg.Voxels)
			}
		}
	}
}

// TestHostileEdgeParams: two 10,000-byte X-Tenant headers that agree on
// their first maxTenantName bytes are one tenant, sharing one rate window;
// and an explicit domain with zero extent is a 400 naming the extent on
// every endpoint that takes one.
func TestHostileEdgeParams(t *testing.T) {
	mach := model.DefaultMachine(1, 0)
	_, ts, id := testServer(t, Config{
		Admission: &AdmissionConfig{TenantRates: []RateWindow{{Limit: 2, Per: time.Hour}}, Machine: &mach},
	})
	prefix := strings.Repeat("t", maxTenantName)
	for i, tenant := range []string{prefix + strings.Repeat("a", 10000-maxTenantName), prefix + strings.Repeat("b", 10000-maxTenantName), prefix + "c"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/query?"+specParams(id, core.AlgPBSYM)+"&x=50&y=40&t=15", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := []int{http.StatusOK, http.StatusOK, http.StatusTooManyRequests}[i]; resp.StatusCode != want {
			t.Fatalf("request %d of one %d-byte tenant prefix: status %d, want %d", i, maxTenantName, resp.StatusCode, want)
		}
	}

	_, ts, id = testServer(t, Config{})
	sid := createStream(t, ts)
	const zero = `"domain":{"x0":0,"y0":0,"t0":0,"gx":0,"gy":30,"gt":0}`
	for _, tc := range []struct {
		name, method, path, body string
	}{
		{"estimate", http.MethodPost, "/v1/estimate", `{"dataset":"` + id + `","algorithm":"pb-sym","sres":2,"tres":1,"hs":10,"ht":3,` + zero + `}`},
		{"stream create", http.MethodPost, "/v1/streams", `{"sres":2,"tres":1,"hs":6,"ht":3,` + zero + `}`},
		{"region static", http.MethodGet, "/v1/region?" + strings.NewReplacer("gx=100", "gx=0", "gt=30", "gt=0").Replace(specParams(id, core.AlgPBSYM)), ""},
		{"region stream", http.MethodGet, "/v1/region?dataset=" + sid + "&sres=2&tres=1&hs=6&ht=3&x0=0&y0=0&t0=0&gx=0&gy=30&gt=0", ""},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		decodeBody(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "extent") {
			t.Errorf("%s with a zero-extent domain: status %d error %q, want 400 naming the extent", tc.name, resp.StatusCode, e.Error)
		}
	}
}

// TestOversizedBodyIs413: a body past MaxBodyBytes is refused with 413 on
// every endpoint that reads one, CSV and JSON alike, while a small
// malformed body stays a 400.
func TestOversizedBodyIs413(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxBodyBytes: 512}))
	t.Cleanup(ts.Close)
	id := createStream(t, ts) // its JSON fits the limit
	csv := strings.Repeat("1,2,3\n", 200)
	pad := strings.Repeat(" ", 1024)
	for _, tc := range []struct {
		name, path, body string
		code             int
	}{
		{"dataset csv", "/v1/datasets", csv, http.StatusRequestEntityTooLarge},
		{"stream events csv", "/v1/datasets/" + id + "/events", csv, http.StatusRequestEntityTooLarge},
		{"stream create json", "/v1/streams", `{"sres":2` + pad + `}`, http.StatusRequestEntityTooLarge},
		{"estimate json", "/v1/estimate", `{"dataset":"x"` + pad + `}`, http.StatusRequestEntityTooLarge},
		{"advance json", "/v1/datasets/" + id + "/advance", `{"t":1` + pad + `}`, http.StatusRequestEntityTooLarge},
		{"malformed csv", "/v1/datasets", "x,y\n1,2\n", http.StatusBadRequest},
		{"malformed stream events", "/v1/datasets/" + id + "/events", "1,2\n", http.StatusBadRequest},
		{"malformed stream json", "/v1/streams", "{", http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.path, "text/csv", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var e struct {
			Error string `json:"error"`
		}
		decodeBody(t, resp, &e)
		if resp.StatusCode != tc.code || e.Error == "" {
			t.Errorf("%s: status %d error %q, want %d with a message", tc.name, resp.StatusCode, e.Error, tc.code)
		}
	}
}

// TestUnknownAlgorithmListsKnown: the error message teaches the caller the
// valid names.
func TestUnknownAlgorithmListsKnown(t *testing.T) {
	_, ts, id := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
		strings.NewReader(estimateBody(id, "quantum")))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	decodeBody(t, resp, &e)
	for _, alg := range core.Algorithms() {
		if !strings.Contains(e.Error, alg) {
			t.Fatalf("error %q does not list %q", e.Error, alg)
		}
	}
}

func TestHealthAndVars(t *testing.T) {
	_, ts, id := testServer(t, Config{})
	j := postEstimate(t, ts, estimateBody(id, core.AlgPBSYM))
	pollJob(t, ts, j.Job)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	decodeBody(t, resp, &health)
	if health["status"] != "ok" || health["datasets"].(float64) != 1 {
		t.Fatalf("healthz = %v", health)
	}
	if health["cache_entries"].(float64) != 1 {
		t.Fatalf("healthz cache_entries = %v, want 1", health["cache_entries"])
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	decodeBody(t, resp, &vars)
	for _, key := range []string{"estimations", "cache_hits", "cache_misses",
		"requests_inflight", "latency_p50_ms", "latency_p99_ms", "datasets"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
	if vars["estimations"].(float64) != 1 {
		t.Fatalf("estimations var = %v, want 1", vars["estimations"])
	}
	if isa := vars["engine_isa"]; isa != simd.Active() {
		t.Fatalf("engine_isa var = %v, want %q", isa, simd.Active())
	}
}

// TestDistinctRequestsRunConcurrently: distinct keys are not serialized by
// the coalescing layer (they only share the worker pool).
func TestDistinctRequestsRunConcurrently(t *testing.T) {
	s := New(Config{Workers: 2})
	var mu sync.Mutex
	inflight, peak := 0, 0
	gate := make(chan struct{})
	s.testHookEstimate = func(estimateKey) {
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
		both := inflight == 2
		mu.Unlock()
		if both {
			close(gate)
		}
		<-gate
		mu.Lock()
		inflight--
		mu.Unlock()
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := ingest(t, ts, testPoints(300, 5))
	j1 := postEstimate(t, ts, estimateBody(id, core.AlgPB))
	j2 := postEstimate(t, ts, estimateBody(id, core.AlgPBSYM))
	pollJob(t, ts, j1.Job)
	pollJob(t, ts, j2.Job)
	mu.Lock()
	defer mu.Unlock()
	if peak != 2 {
		t.Fatalf("peak concurrent estimations = %d, want 2", peak)
	}
	if got := s.Estimations(); got != 2 {
		t.Fatalf("estimations = %d, want 2", got)
	}
}

func TestLatencyHistogram(t *testing.T) {
	h := newLatencyHist(8)
	if q := h.quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g", q)
	}
	for i := 1; i <= 16; i++ { // wraps the window: retains 9..16
		h.Observe(time.Duration(i) * time.Second)
	}
	if q := h.quantile(1.0); q != 16 {
		t.Fatalf("max = %g, want 16", q)
	}
	if q := h.quantile(0.5); q < 9 || q > 16 {
		t.Fatalf("p50 = %g outside retained window", q)
	}
	h = newLatencyHist(8)
	for i := 1; i <= 3; i++ {
		h.Observe(time.Duration(i) * time.Second)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 2}, {0.99, 3}, {1, 3}} {
		if got := h.quantile(c.q); got != c.want {
			t.Errorf("quantile(%g) of 1s, 2s, 3s = %g, want the nearest rank %g", c.q, got, c.want)
		}
	}
}

// TestGridSizeLimit: a request deriving a grid over MaxGridBytes is
// rejected up front instead of allocating it.
func TestGridSizeLimit(t *testing.T) {
	_, ts, id := testServer(t, Config{MaxGridBytes: 1 << 20})
	body := fmt.Sprintf(`{"dataset":%q,"sres":0.1,"tres":0.1,"hs":10,"ht":3,
		"domain":{"x0":0,"y0":0,"t0":0,"gx":100,"gy":80,"gt":30}}`, id)
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "per-request limit") {
		t.Fatalf("status %d error %q, want 400 with the grid-size limit", resp.StatusCode, e.Error)
	}
}

// TestQueryOutsideDomain: with a resident grid, an out-of-domain location
// must not clamp to an edge voxel — it answers via the exact evaluator,
// which decays to zero.
func TestQueryOutsideDomain(t *testing.T) {
	_, ts, id := testServer(t, Config{})
	j := postEstimate(t, ts, estimateBody(id, core.AlgPBSYM))
	if done := pollJob(t, ts, j.Job); done.State != jobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	url := fmt.Sprintf("%s/v1/query?%s&x=1e6&y=5&t=5", ts.URL, specParams(id, core.AlgPBSYM))
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Density float64 `json:"density"`
		Source  string  `json:"source"`
	}
	decodeBody(t, resp, &out)
	if out.Source != "exact" || out.Density != 0 {
		t.Fatalf("out-of-domain query = %+v, want exact source with zero density", out)
	}
}

// TestExactQueryBinLimit: a tiny bandwidth over a large domain must not
// allocate an unbounded bin table for the exact evaluator.
func TestExactQueryBinLimit(t *testing.T) {
	_, ts, id := testServer(t, Config{})
	url := fmt.Sprintf("%s/v1/query?dataset=%s&sres=2&tres=1&hs=0.0001&ht=0.0001&x0=0&y0=0&t0=0&gx=100&gy=80&gt=30&x=5&y=5&t=5", ts.URL, id)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "blocks") {
		t.Fatalf("status %d error %q, want 400 with the bin limit", resp.StatusCode, e.Error)
	}
}

// TestSyncEnsureRefusedDuringShutdown: the synchronous region path is also
// covered by the drain contract — refused once Shutdown begins.
func TestSyncEnsureRefusedDuringShutdown(t *testing.T) {
	s, ts, id := testServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/region?" + specParams(id, core.AlgPBSYM))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("region during shutdown = %d (%s), want 503", resp.StatusCode, e.Error)
	}
}

// TestGridSizeLimitOverflow: a request whose voxel count overflows int64
// byte accounting must still be rejected (not panic the allocator).
func TestGridSizeLimitOverflow(t *testing.T) {
	_, ts, id := testServer(t, Config{})
	body := fmt.Sprintf(`{"dataset":%q,"sres":1,"tres":1,"hs":10,"ht":3,
		"domain":{"x0":0,"y0":0,"t0":0,"gx":1048576,"gy":1048576,"gt":2097152}}`, id)
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "per-request limit") {
		t.Fatalf("status %d error %q, want 400 with the grid-size limit", resp.StatusCode, e.Error)
	}
}

// TestFlightPanicSafe: a panicking estimation surfaces as an error to the
// leader and every follower, and the key is reusable afterwards.
func TestFlightPanicSafe(t *testing.T) {
	f := newFlightGroup()
	k := estimateKey{Dataset: "d", Algorithm: "pb-sym"}
	if _, err := f.do(context.Background(), k, func() (cube, error) { panic("boom") }); err == nil ||
		!strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking fn returned err = %v, want panic error", err)
	}
	res, err := f.do(context.Background(), k, func() (cube, error) { return cube{res: &core.Result{Algorithm: "ok"}}, nil })
	if err != nil || res.res.Algorithm != "ok" {
		t.Fatalf("key wedged after panic: res=%v err=%v", res, err)
	}
}

// TestJobTableBounded: finished jobs are evicted oldest-first past maxJobs;
// running jobs survive.
func TestJobTableBounded(t *testing.T) {
	tbl := newJobTable()
	running := &job{id: "running", state: jobRunning}
	tbl.mu.Lock()
	tbl.insert(running)
	for i := 0; i < maxJobs+50; i++ {
		tbl.insert(&job{id: fmt.Sprintf("j%04d", i), state: jobDone})
	}
	tbl.mu.Unlock()
	if len(tbl.m) > maxJobs+1 {
		t.Fatalf("job table grew to %d entries (max %d + running)", len(tbl.m), maxJobs)
	}
	if _, ok := tbl.get("running"); !ok {
		t.Fatal("running job was evicted")
	}
	if _, ok := tbl.get("j0000"); ok {
		t.Fatal("oldest finished job survived eviction")
	}
	if _, ok := tbl.get(fmt.Sprintf("j%04d", maxJobs+49)); !ok {
		t.Fatal("newest job missing")
	}
}
