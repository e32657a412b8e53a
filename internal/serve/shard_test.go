package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
)

// shardTestServer starts a Server whose live streams are carved across r
// in-process rank endpoints, plus the rank servers backing them.
func shardTestServer(t *testing.T, r int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	n := dist.NewNetwork()
	peers := make([]string, r)
	for i := 0; i < r; i++ {
		rs, err := dist.ListenRank(n, fmt.Sprintf("inproc://serve-rank%d", i), dist.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		peers[i] = rs.Addr()
	}
	cfg.Shard = &ShardConfig{Peers: peers, Network: n}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// getRegion hits /v1/region for a stream's window and returns mass+source.
func getRegion(t *testing.T, ts *httptest.Server, params string) (float64, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/region?" + params)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Mass   float64 `json:"mass"`
		Source string  `json:"source"`
		Error  string  `json:"error"`
	}
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("region status %d: %s", resp.StatusCode, out.Error)
	}
	return out.Mass, out.Source
}

type hotspotsJSONResp struct {
	Hotspots []struct {
		Voxel   [3]int  `json:"voxel"`
		Density float64 `json:"density"`
	} `json:"hotspots"`
	Source string `json:"source"`
	Error  string `json:"error"`
}

func getHotspots(t *testing.T, ts *httptest.Server, params string, k int) hotspotsJSONResp {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/hotspots?%s&k=%d", ts.URL, params, k))
	if err != nil {
		t.Fatal(err)
	}
	var out hotspotsJSONResp
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hotspots status %d: %s", resp.StatusCode, out.Error)
	}
	return out
}

// TestShardedStreamEndpoints: a server backed by R rank endpoints answers
// /v1/region and /v1/hotspots for a live stream identically (within 1e-9)
// to an unsharded server holding the same events, for R in {1, 2, 4}, and
// the answers come from the sketch path on both.
func TestShardedStreamEndpoints(t *testing.T) {
	pts := streamEvents(300, 8, 41)
	for _, r := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("r%d", r), func(t *testing.T) {
			local, lts, _ := testServer(t, Config{})
			sharded, sts := shardTestServer(t, r, Config{})

			lid := createStream(t, lts)
			sid := createStream(t, sts)
			postEvents(t, lts, lid, pts)
			postEvents(t, sts, sid, pts)
			lparams := "dataset=" + lid + "&sres=2&tres=1&hs=6&ht=3"
			sparams := "dataset=" + sid + "&sres=2&tres=1&hs=6&ht=3"

			lmass, lsrc := getRegion(t, lts, lparams)
			smass, ssrc := getRegion(t, sts, sparams)
			if lsrc != "sketch" || ssrc != "sketch" {
				t.Fatalf("region sources local=%q sharded=%q, want sketch", lsrc, ssrc)
			}
			if math.Abs(lmass-smass) > 1e-9*math.Max(1, math.Abs(lmass)) {
				t.Fatalf("sharded region mass %g, local %g", smass, lmass)
			}

			lhot := getHotspots(t, lts, lparams, 6)
			shot := getHotspots(t, sts, sparams, 6)
			if lhot.Source != "sketch" || shot.Source != "sketch" {
				t.Fatalf("hotspot sources local=%q sharded=%q, want sketch", lhot.Source, shot.Source)
			}
			if len(shot.Hotspots) != len(lhot.Hotspots) {
				t.Fatalf("sharded returned %d hotspots, local %d", len(shot.Hotspots), len(lhot.Hotspots))
			}
			for i := range lhot.Hotspots {
				if shot.Hotspots[i].Voxel != lhot.Hotspots[i].Voxel {
					t.Fatalf("hotspot %d voxel %v, local %v", i, shot.Hotspots[i].Voxel, lhot.Hotspots[i].Voxel)
				}
				if math.Abs(shot.Hotspots[i].Density-lhot.Hotspots[i].Density) > 1e-9 {
					t.Fatalf("hotspot %d density %g, local %g", i, shot.Hotspots[i].Density, lhot.Hotspots[i].Density)
				}
			}

			// Advance both windows and re-compare: every rank broadcasts the same
			// layer count, so sliding must stay in lockstep.
			advance(t, lts, lid, 24)
			advance(t, sts, sid, 24)
			late := streamEvents(120, 21, 42)
			postEvents(t, lts, lid, late)
			postEvents(t, sts, sid, late)
			lmass, _ = getRegion(t, lts, lparams)
			smass, _ = getRegion(t, sts, sparams)
			if math.Abs(lmass-smass) > 1e-9*math.Max(1, math.Abs(lmass)) {
				t.Fatalf("post-advance sharded mass %g, local %g", smass, lmass)
			}

			// The shard metrics surface in /debug/vars: gather counters,
			// latency quantiles, and per-rank wire bytes.
			resp, err := http.Get(sts.URL + "/debug/vars")
			if err != nil {
				t.Fatal(err)
			}
			var vars map[string]any
			decodeBody(t, resp, &vars)
			if v, ok := vars["shard_gathers"].(float64); !ok || v <= 0 {
				t.Fatalf("expvar shard_gathers = %v, want a positive counter", vars["shard_gathers"])
			}
			if _, ok := vars["shard_gather_p50_ms"].(float64); !ok {
				t.Fatalf("expvar shard_gather_p50_ms = %v, want a number", vars["shard_gather_p50_ms"])
			}
			// Every event crossed the wire exactly once.
			if v := vars["shard_stream_events_shipped"]; v != float64(len(pts)+len(late)) {
				t.Fatalf("expvar shard_stream_events_shipped = %v, want %d", v, len(pts)+len(late))
			}
			if v, ok := vars["shard_stream_topk_rounds"].(float64); !ok || v < 1 {
				t.Fatalf("expvar shard_stream_topk_rounds = %v, want at least the one hotspot read", vars["shard_stream_topk_rounds"])
			}
			comm, ok := vars["shard_comm"].([]any)
			if !ok || len(comm) != r {
				t.Fatalf("expvar shard_comm = %v, want %d rank entries", vars["shard_comm"], r)
			}
			for i, e := range comm {
				rc := e.(map[string]any)
				if rc["Sent"].(float64) <= 0 || rc["Recv"].(float64) <= 0 {
					t.Fatalf("rank %d moved no bytes: %v", i, rc)
				}
			}
			if v := sharded.met.streams.Value(); v != 1 {
				t.Fatalf("streams metric = %d, want 1", v)
			}
			// Sharded windows pin nothing in this process.
			if pb := sharded.streams.pinnedBytes(); pb != 0 {
				t.Fatalf("sharded stream pinned %d bytes locally, want 0", pb)
			}
			if pb := local.streams.pinnedBytes(); pb == 0 {
				t.Fatal("local stream pinned 0 bytes, want the window ring")
			}
		})
	}
}

// TestShardedStreamConcurrentHTTP drives concurrent ingest and analytics
// against a sharded stream (race-detector workout for the serve+dist
// seam), then verifies the settled sharded answers match the local path.
func TestShardedStreamConcurrentHTTP(t *testing.T) {
	_, sts := shardTestServer(t, 2, Config{})
	_, lts, _ := testServer(t, Config{})
	sid := createStream(t, sts)
	lid := createStream(t, lts)
	sparams := "dataset=" + sid + "&sres=2&tres=1&hs=6&ht=3"

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(sts.URL + "/v1/region?" + sparams)
				if err == nil {
					resp.Body.Close()
				}
				resp, err = http.Get(sts.URL + "/v1/hotspots?" + sparams + "&k=4")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		postEvents(t, sts, sid, streamEvents(50, 8, uint64(100+i)))
	}
	close(stop)
	wg.Wait()

	for i := 0; i < 6; i++ {
		postEvents(t, lts, lid, streamEvents(50, 8, uint64(100+i)))
	}
	smass, _ := getRegion(t, sts, sparams)
	lmass, _ := getRegion(t, lts, "dataset="+lid+"&sres=2&tres=1&hs=6&ht=3")
	if math.Abs(smass-lmass) > 1e-9*math.Max(1, math.Abs(lmass)) {
		t.Fatalf("settled sharded mass %g, local %g", smass, lmass)
	}
}

// TestShardConnectFailureSurfaces: unreachable peers fail stream creation
// with the rank-attributed dial error, and the failure is sticky (no
// reconnect storm), while batch endpoints keep working.
func TestShardConnectFailureSurfaces(t *testing.T) {
	cfg := Config{Shard: &ShardConfig{Peers: []string{"inproc://nobody-listening"}}}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/streams", "application/json",
		strings.NewReader(`{"sres":2,"tres":1,"hs":6,"ht":3,
			"domain":{"x0":0,"y0":0,"t0":0,"gx":40,"gy":30,"gt":20}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusCreated {
		t.Fatal("stream creation succeeded with unreachable shard peers")
	}
	if _, err := s.shardCluster(); err == nil {
		t.Fatal("shardCluster should report the sticky dial failure")
	}

	// Static ingestion and estimation are unaffected by a dead cluster.
	id := ingest(t, ts, testPoints(100, 3))
	if id == "" {
		t.Fatal("static ingest failed")
	}
}

// TestShardedShutdownLeaksNoGoroutines: a server holding a sharded stream
// over two in-process ranks leaves no goroutine behind once its HTTP
// listener, Server.Shutdown (which closes the shard cluster) and the rank
// servers have stopped.
func TestShardedShutdownLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	n := dist.NewNetwork()
	var ranks []*dist.RankServer
	var peers []string
	for i := 0; i < 2; i++ {
		rs, err := dist.ListenRank(n, fmt.Sprintf("inproc://leak-rank%d", i), dist.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ranks = append(ranks, rs)
		peers = append(peers, rs.Addr())
	}
	s := New(Config{Shard: &ShardConfig{Peers: peers, Network: n}})
	ts := httptest.NewServer(s)
	sid := createStream(t, ts)
	postEvents(t, ts, sid, streamEvents(200, 8, 3))
	if _, src := getRegion(t, ts, "dataset="+sid+"&sres=2&tres=1&hs=6&ht=3"); src != "sketch" {
		t.Fatalf("region answered from %q, want the sharded window's sketch", src)
	}
	if got := s.met.shardGathers.Value(); got == 0 {
		t.Fatal("the region read gathered from no rank")
	}

	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, rs := range ranks {
		rs.Close()
	}
	// A goroutine may still be returning after the call that stopped it:
	// wait, a bounded number of times, for the count to come back down.
	got := runtime.NumGoroutine()
	for i := 0; i < 2000 && got > base; i++ {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > base {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after shutdown, %d before the server started:\n%s", got, base, buf[:runtime.Stack(buf, true)])
	}
}
