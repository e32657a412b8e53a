package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/model"
)

// goldenReads is the transcript of one scripted session against the GET
// analytics endpoints, recorded by TestReadGoldenBytes.
const goldenReads = "testdata/read_golden.txt"

// readTranscript records GET answers byte for byte: status, the headers a
// client acts on, and the body exactly as sent.
type readTranscript struct {
	t *testing.T
	b strings.Builder
}

// get issues one request and appends its answer under the given row name.
func (tr *readTranscript) get(name string, ts *httptest.Server, path string) {
	tr.t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		tr.t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		tr.t.Fatal(err)
	}
	fmt.Fprintf(&tr.b, "%s: GET %s\n%d content-type=%q retry-after=%q\n%s",
		name, path, resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), body)
}

// goldenVars are the /debug/vars counters the benchmark's per-layer rows
// read from a served read mix.
var goldenVars = [...]string{"cache_hits", "cache_misses", "sketch_hits", "sketch_rebuilds", "stream_reads"}

// vars appends the change of the goldenVars counters since before.
func (tr *readTranscript) vars(name string, s *Server, before [len(goldenVars)]int64) {
	now := counterValues(s)
	fmt.Fprintf(&tr.b, "%s: vars", name)
	for i, v := range goldenVars {
		fmt.Fprintf(&tr.b, " %s=%+d", v, now[i]-before[i])
	}
	tr.b.WriteString("\n")
}

func counterValues(s *Server) (out [len(goldenVars)]int64) {
	for i, v := range goldenVars {
		out[i] = s.met.m.Get(v).(interface{ Value() int64 }).Value()
	}
	return out
}

// TestReadGoldenBytes pins the exact bytes of every /v1/query, /v1/region
// and /v1/hotspots answer shape on fixed seeded scripts: each source
// (grid, sketch, stream, exact), local and sharded streams healthy and
// with a rank down under both gather policies, and the 400, 429 and 503
// error answers, plus the read counters each script moves. The floats are
// the unfused-arithmetic values only amd64 guarantees.
func TestReadGoldenBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned densities assume unfused multiply-adds, which only amd64 guarantees")
	}
	tr := &readTranscript{t: t}

	// Local server: a static dataset and a local stream.
	s, ts, id := testServer(t, Config{})
	before := counterValues(s)
	static := specParams(id, core.AlgPBSYM)
	tr.get("static/query-miss", ts, "/v1/query?"+static+"&x=50&y=40&t=15")
	tr.get("static/region-build", ts, "/v1/region?"+static+"&bx0=3&bx1=31&by0=2&by1=17&bt0=1&bt1=28")
	tr.get("static/region-cached", ts, "/v1/region?"+static)
	tr.get("static/region-clipped", ts, "/v1/region?"+static+"&bx0=-4&bx1=500&bt0=25&bt1=40")
	tr.get("static/hotspots", ts, "/v1/hotspots?"+static+"&k=5")
	tr.get("static/query-grid", ts, "/v1/query?"+static+"&x=50&y=40&t=15")
	tr.get("static/query-exact", ts, "/v1/query?"+static+"&x=50&y=40&t=15&exact=1")
	tr.get("static/query-exact-true", ts, "/v1/query?"+static+"&x=50.5&y=40&t=15&exact=true")
	tr.get("static/query-outside", ts, "/v1/query?"+static+"&x=150&y=40&t=15")
	// GT 29.5 is not a multiple of TRes 1: the grid's last layer covers
	// t in [29, 30), past the domain. A point there is answered exactly,
	// not from the resident cube.
	ragged := fmt.Sprintf("dataset=%s&algorithm=pb-sym&sres=2&tres=1&hs=10&ht=3&x0=0&y0=0&t0=0&gx=100&gy=80&gt=29.5", id)
	tr.get("static/ragged-region", ts, "/v1/region?"+ragged)
	tr.get("static/ragged-query-in", ts, "/v1/query?"+ragged+"&x=50&y=40&t=29.2")
	tr.get("static/ragged-query-past-domain", ts, "/v1/query?"+ragged+"&x=50&y=40&t=29.7")

	sid := createStream(t, ts)
	postEvents(t, ts, sid, append(streamEvents(150, 5, 91), streamEvents(150, 15, 92)...))
	live := "dataset=" + sid + "&sres=2&tres=1&hs=6&ht=3"
	tr.get("stream/query", ts, "/v1/query?"+live+"&x=20&y=15&t=8")
	tr.get("stream/query-exact", ts, "/v1/query?"+live+"&x=20&y=15&t=8&exact=1")
	tr.get("stream/region", ts, "/v1/region?"+live+"&bx0=3&bx1=11&by0=2&by1=9&bt0=1&bt1=12")
	tr.get("stream/hotspots", ts, "/v1/hotspots?"+live+"&k=4")
	tr.get("stream/region-other-spec", ts, "/v1/region?dataset="+sid+"&sres=4&tres=1&hs=6&ht=3")
	tr.get("stream/query-other-spec", ts, "/v1/query?dataset="+sid+"&sres=4&tres=1&hs=6&ht=3&x=20&y=15&t=8")
	advance(t, ts, sid, 26.5)
	tr.get("stream/query-advanced", ts, "/v1/query?"+live+"&x=20&y=15&t=24")
	tr.get("stream/query-behind-window", ts, "/v1/query?"+live+"&x=20&y=15&t=3")
	tr.get("stream/region-advanced", ts, "/v1/region?"+live)
	tr.get("stream/hotspots-advanced", ts, "/v1/hotspots?"+live+"&k=3")

	tr.get("error/missing-x", ts, "/v1/query?"+static+"&y=40&t=15")
	tr.get("error/bad-k", ts, "/v1/hotspots?"+static+"&k=0")
	tr.get("error/bad-box", ts, "/v1/region?"+static+"&bx0=abc")
	tr.get("error/unknown-dataset", ts, "/v1/region?dataset=nope&sres=2&tres=1&hs=10&ht=3")
	tr.get("error/bad-algorithm", ts, "/v1/hotspots?dataset="+id+"&algorithm=nope&sres=2&tres=1&hs=10&ht=3")
	tr.get("error/bad-exact-index", ts, "/v1/query?dataset="+id+"&sres=1&tres=1&hs=0.01&ht=0.01&x=50&y=40&t=15")
	tr.vars("local", s, before)

	// A budget with room for the grid but not its pyramid: cube reads scan
	// the grid (source "grid").
	spec, err := grid.NewSpec(testDomain, 2, 1, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	gs, gts, gid := testServer(t, Config{CacheBytes: spec.Bytes() + spec.Bytes()/2})
	before = counterValues(gs)
	gparams := specParams(gid, core.AlgPBSYM)
	tr.get("grid/region-build", gts, "/v1/region?"+gparams+"&bx0=3&bx1=31&by0=2&by1=17&bt0=1&bt1=28")
	tr.get("grid/hotspots", gts, "/v1/hotspots?"+gparams+"&k=5")
	tr.get("grid/query", gts, "/v1/query?"+gparams+"&x=50&y=40&t=15")
	tr.vars("grid", gs, before)

	// Sharded streams over two ranks, healthy and then with rank 1 down.
	pts := append(streamEvents(150, 5, 93), streamEvents(150, 15, 94)...)
	for _, policy := range []dist.GatherPolicy{dist.GatherPartial, dist.GatherFailFast} {
		name := "shard-" + policy.String()
		hs, hts, fc := shardFaultServer(t, 2, Config{Shard: &ShardConfig{Policy: policy}})
		before = counterValues(hs)
		hid := createStream(t, hts)
		postEvents(t, hts, hid, pts)
		sharded := "dataset=" + hid + "&sres=2&tres=1&hs=6&ht=3"
		tr.get(name+"/query", hts, "/v1/query?"+sharded+"&x=20&y=15&t=15")
		tr.get(name+"/region", hts, "/v1/region?"+sharded+"&bx0=3&bx1=11&by0=2&by1=9&bt0=1&bt1=12")
		tr.get(name+"/hotspots", hts, "/v1/hotspots?"+sharded+"&k=4")
		fc.kill(1)
		tr.get(name+"/query-rank-down", hts, "/v1/query?"+sharded+"&x=20&y=15&t=15")
		tr.get(name+"/region-rank-down", hts, "/v1/region?"+sharded+"&bx0=3&bx1=11&by0=2&by1=9&bt0=1&bt1=12")
		tr.get(name+"/hotspots-rank-down", hts, "/v1/hotspots?"+sharded+"&k=4")
		tr.vars(name, hs, before)
	}

	// One pool slot busy and the one queue place taken: the next cube
	// build is shed with 429 and a priced Retry-After.
	mach := model.DefaultMachine(1, 0)
	qs, qts, qid := testServer(t, Config{Workers: 1, Admission: &AdmissionConfig{QueueDepth: 1, Machine: &mach}})
	started, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	qs.testHookEstimate = func(estimateKey) {
		once.Do(func() { close(started) })
		<-hold
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		qs.ensureGrid(context.Background(), admKey(t, qid, 0), defaultTenant, false)
	}()
	<-started
	go func() {
		defer wg.Done()
		qs.ensureGrid(context.Background(), admKey(t, qid, 1), defaultTenant, false)
	}()
	waitQueueDepth(t, qs, 1)
	before = counterValues(qs)
	tr.get("error/shed", qts, strings.TrimPrefix(regionURL(qts, qid, 2), qts.URL))
	tr.vars("shed", qs, before)
	close(hold)
	wg.Wait()

	got := tr.b.String()
	want, err := os.ReadFile(goldenReads)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s:%d differs\n got: %s\nwant: %s", goldenReads, i+1, g, w)
		}
	}
}
