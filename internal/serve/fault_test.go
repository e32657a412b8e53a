package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dist"
)

// serveFaultCluster is a kill-and-restartable rank fleet backing a
// sharded server under test. The server's background health monitor is
// disabled (HeartbeatEvery < 0), so failure detection and healing happen
// exactly when a test triggers an RPC or calls Probe — deterministic, no
// sleeps.
type serveFaultCluster struct {
	t     *testing.T
	n     *dist.Network
	addrs []string
	srv   []*dist.RankServer
}

func shardFaultServer(t *testing.T, r int, cfg Config) (*Server, *httptest.Server, *serveFaultCluster) {
	t.Helper()
	fc := &serveFaultCluster{t: t, n: dist.NewNetwork(), addrs: make([]string, r), srv: make([]*dist.RankServer, r)}
	for i := 0; i < r; i++ {
		fc.addrs[i] = fmt.Sprintf("inproc://serve-fault-%s-%d", t.Name(), i)
		fc.restart(i)
	}
	t.Cleanup(func() {
		for _, rs := range fc.srv {
			if rs != nil {
				rs.Close()
			}
		}
	})
	var policy dist.GatherPolicy
	if cfg.Shard != nil {
		policy = cfg.Shard.Policy
	}
	cfg.Shard = &ShardConfig{Peers: fc.addrs, Network: fc.n, HeartbeatEvery: -1, Policy: policy}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, fc
}

// kill closes rank i's server: its in-process listener goes away and
// every live connection to it is severed, exactly like a dead process.
func (fc *serveFaultCluster) kill(i int) {
	fc.t.Helper()
	fc.srv[i].Close()
	fc.srv[i] = nil
}

// restart brings rank i back on its original address with empty state —
// the reconnect therefore requires a full re-seed, like a real restart.
func (fc *serveFaultCluster) restart(i int) {
	fc.t.Helper()
	rs, err := dist.ListenRank(fc.n, fc.addrs[i], dist.ServerOptions{})
	if err != nil {
		fc.t.Fatal(err)
	}
	fc.srv[i] = rs
}

// probe runs one synchronous health pass on the server's cluster,
// healing every reachable failed rank.
func probeShard(t *testing.T, s *Server) {
	t.Helper()
	cl, err := s.shardCluster()
	if err != nil {
		t.Fatal(err)
	}
	cl.Probe()
}

// regionResp is the /v1/region sketch answer including the coverage
// fields degraded gathers carry.
type regionResp struct {
	Mass     float64 `json:"mass"`
	Source   string  `json:"source"`
	Coverage float64 `json:"coverage"`
	Degraded bool    `json:"degraded"`
	Error    string  `json:"error"`
}

func getRegionCov(t *testing.T, ts *httptest.Server, params string) regionResp {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/region?" + params)
	if err != nil {
		t.Fatal(err)
	}
	var out regionResp
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("region status %d: %s", resp.StatusCode, out.Error)
	}
	if out.Source != "sketch" {
		t.Fatalf("region source %q, want sketch", out.Source)
	}
	return out
}

type healthzResp struct {
	Status   string `json:"status"`
	Degraded bool   `json:"degraded"`
	Shard    *struct {
		Ranks int   `json:"ranks"`
		Down  int   `json:"down"`
		Heals int64 `json:"heals"`
	} `json:"shard"`
}

func getHealthz(t *testing.T, ts *httptest.Server) healthzResp {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var out healthzResp
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	return out
}

// TestServeDegradedGatherAndRecovery exercises the whole degraded-mode
// arc over HTTP: a healthy sharded stream answers at full coverage; with
// a rank killed, region and hotspot gathers keep answering with
// degraded=true and coverage 1/2, mutations commit with the same flags,
// /healthz turns degraded with a populated shard section; after restart
// and heal the answers return to full coverage and match an unsharded
// reference that saw every event — including those ingested during the
// outage, proving the dead rank was rebuilt by replay.
func TestServeDegradedGatherAndRecovery(t *testing.T) {
	s, sts, fc := shardFaultServer(t, 2, Config{})
	_, lts, _ := testServer(t, Config{})
	sid := createStream(t, sts)
	lid := createStream(t, lts)
	sparams := "dataset=" + sid + "&sres=2&tres=1&hs=6&ht=3"
	lparams := "dataset=" + lid + "&sres=2&tres=1&hs=6&ht=3"

	pts := streamEvents(300, 8, 77)
	postEvents(t, sts, sid, pts)
	postEvents(t, lts, lid, pts)

	if reg := getRegionCov(t, sts, sparams); reg.Degraded || reg.Coverage != 1 {
		t.Fatalf("healthy region degraded=%v coverage=%v, want false/1", reg.Degraded, reg.Coverage)
	}
	if hz := getHealthz(t, sts); hz.Status != "ok" || hz.Shard == nil || hz.Shard.Ranks != 2 || hz.Shard.Down != 0 {
		t.Fatalf("healthy healthz = %+v", hz)
	}

	fc.kill(1)

	reg := getRegionCov(t, sts, sparams)
	if !reg.Degraded || reg.Coverage != 0.5 {
		t.Fatalf("post-kill region degraded=%v coverage=%v, want true/0.5", reg.Degraded, reg.Coverage)
	}
	hot := getHotspots(t, sts, sparams, 4)
	if len(hot.Hotspots) == 0 {
		t.Fatal("degraded hotspots returned nothing")
	}

	// Mutations during the outage commit on the coordinator and the live
	// rank, and the response says so.
	late := streamEvents(120, 12, 78)
	if sj := postEvents(t, sts, sid, late); !sj.Degraded || sj.Coverage != 0.5 {
		t.Fatalf("degraded ingest reported degraded=%v coverage=%v, want true/0.5", sj.Degraded, sj.Coverage)
	}
	postEvents(t, lts, lid, late)

	hz := getHealthz(t, sts)
	if hz.Status != "degraded" || !hz.Degraded || hz.Shard == nil || hz.Shard.Down < 1 {
		t.Fatalf("post-kill healthz = %+v, want degraded with a down rank", hz)
	}

	// The failure surfaces in the operational metrics too.
	resp, err := http.Get(sts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	decodeBody(t, resp, &vars)
	if v, ok := vars["shard_degraded_mutations"].(float64); !ok || v < 1 {
		t.Fatalf("expvar shard_degraded_mutations = %v, want >= 1", vars["shard_degraded_mutations"])
	}
	health, ok := vars["shard_health"].([]any)
	if !ok || len(health) != 2 {
		t.Fatalf("expvar shard_health = %v, want 2 rank entries", vars["shard_health"])
	}

	fc.restart(1)
	probeShard(t, s)

	reg = getRegionCov(t, sts, sparams)
	if reg.Degraded || reg.Coverage != 1 {
		t.Fatalf("healed region degraded=%v coverage=%v, want false/1", reg.Degraded, reg.Coverage)
	}
	lmass, _ := getRegion(t, lts, lparams)
	if math.Abs(reg.Mass-lmass) > 1e-9*math.Max(1, math.Abs(lmass)) {
		t.Fatalf("healed sharded mass %g, local reference %g", reg.Mass, lmass)
	}
	if hz := getHealthz(t, sts); hz.Status != "ok" || hz.Shard == nil || hz.Shard.Heals < 1 {
		t.Fatalf("healed healthz = %+v, want ok with heals >= 1", hz)
	}
}

// queryResp is the /v1/query stream answer including its coverage fields,
// or the attributed refusal.
type queryResp struct {
	Density  float64 `json:"density"`
	Source   string  `json:"source"`
	Coverage float64 `json:"coverage"`
	Degraded bool    `json:"degraded"`
	Error    string  `json:"error"`
	Rank     *int    `json:"rank"`
	Phase    string  `json:"phase"`
}

func getQuery(t *testing.T, ts *httptest.Server, params string) (queryResp, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/query?" + params + "&x=20&y=15&t=15")
	if err != nil {
		t.Fatal(err)
	}
	var out queryResp
	decodeBody(t, resp, &out)
	return out, resp
}

// TestServeQueryRankDownFailsFast: with a rank down, a /v1/query on a
// sharded stream answers the live ranks' share with coverage 1/2 under the
// partial policy, and returns to full coverage and the unsharded answer
// after heal; under the fail-fast policy it is refused with 503 +
// Retry-After and the attributed rank — never silently answered by the
// exact fallback.
func TestServeQueryRankDownFailsFast(t *testing.T) {
	pts := append(streamEvents(150, 5, 79), streamEvents(150, 15, 80)...)
	_, lts, _ := testServer(t, Config{})
	lid := createStream(t, lts)
	postEvents(t, lts, lid, pts)
	want, _ := getQuery(t, lts, "dataset="+lid+"&sres=2&tres=1&hs=6&ht=3")

	for _, policy := range []dist.GatherPolicy{dist.GatherPartial, dist.GatherFailFast} {
		t.Run(policy.String(), func(t *testing.T) {
			s, sts, fc := shardFaultServer(t, 2, Config{Shard: &ShardConfig{Policy: policy}})
			sid := createStream(t, sts)
			postEvents(t, sts, sid, pts)
			sparams := "dataset=" + sid + "&sres=2&tres=1&hs=6&ht=3"
			if got, _ := getQuery(t, sts, sparams); got.Source != "stream" || got.Degraded || got.Coverage != 1 ||
				math.Abs(got.Density-want.Density) > 1e-9*math.Max(1, want.Density) {
				t.Fatalf("healthy query %+v, want the unsharded density %g at coverage 1", got, want.Density)
			}

			fc.kill(1)
			got, resp := getQuery(t, sts, sparams)
			if policy == dist.GatherPartial {
				if resp.StatusCode != http.StatusOK || got.Source != "stream" || !got.Degraded || got.Coverage != 0.5 {
					t.Fatalf("degraded query status %d %+v, want a stream answer at coverage 0.5", resp.StatusCode, got)
				}
				if !(got.Density > 0 && got.Density < want.Density) {
					t.Fatalf("degraded density %g, want the live rank's share of %g", got.Density, want.Density)
				}
				fc.restart(1)
				probeShard(t, s)
				if got, _ = getQuery(t, sts, sparams); got.Degraded || got.Coverage != 1 ||
					math.Abs(got.Density-want.Density) > 1e-9*math.Max(1, want.Density) {
					t.Fatalf("healed query %+v, want the unsharded density %g at coverage 1", got, want.Density)
				}
				return
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("fail-fast query with a rank down: status %d %+v, want 503", resp.StatusCode, got)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 refusal carries no Retry-After header")
			}
			if got.Rank == nil || *got.Rank != 1 || got.Phase != "query" {
				t.Fatalf("refusal attribution rank=%v phase=%q, want rank 1 / query", got.Rank, got.Phase)
			}
		})
	}
}

// TestServeShardedStreamRecover: a sharded stream's mutations are
// journaled by the coordinator, and a fresh server over the same WAL
// directory rebuilds the stream by replaying the journal through the
// rank cluster — closing the durability gap where rank memory was the
// only copy of the window.
func TestServeShardedStreamRecover(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, fc := shardFaultServer(t, 2, walTestConfig(dir, 0, 0))
	sid := createStream(t, ts1)
	sparams := "dataset=" + sid + "&sres=2&tres=1&hs=6&ht=3"

	postEvents(t, ts1, sid, streamEvents(200, 8, 81))
	advance(t, ts1, sid, 24)
	postEvents(t, ts1, sid, streamEvents(150, 22, 82))
	want := getRegionCov(t, ts1, sparams)
	st1, ok := s1.streams.get(sid)
	if !ok {
		t.Fatal("stream vanished from the first server")
	}
	wantPoints := st1.ds.size()

	// A second coordinator over the same journal root and rank fleet
	// (the first is simply abandoned, as a crash would leave it).
	cfg2 := walTestConfig(dir, 0, 0)
	cfg2.Shard = &ShardConfig{Peers: fc.addrs, Network: fc.n, HeartbeatEvery: -1}
	s2 := New(cfg2)
	stats, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Streams != 1 || stats.Snapshots != 0 || stats.Replayed == 0 {
		t.Fatalf("recover stats %+v, want 1 snapshot-less stream with replayed records", stats)
	}
	ts2 := httptest.NewServer(s2)
	t.Cleanup(ts2.Close)

	st2, ok := s2.streams.get(sid)
	if !ok {
		t.Fatalf("recovered server has no stream %s", sid)
	}
	if !st2.sharded {
		t.Fatal("recovered stream is not sharded")
	}
	if got := st2.ds.size(); got != wantPoints {
		t.Fatalf("recovered live count %d, want %d", got, wantPoints)
	}
	got := getRegionCov(t, ts2, sparams)
	if got.Degraded || got.Coverage != 1 {
		t.Fatalf("recovered region degraded=%v coverage=%v, want false/1", got.Degraded, got.Coverage)
	}
	if math.Abs(got.Mass-want.Mass) > 1e-9*math.Max(1, math.Abs(want.Mass)) {
		t.Fatalf("recovered mass %g, pre-crash mass %g", got.Mass, want.Mass)
	}
}
