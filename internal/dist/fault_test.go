package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
)

// faultHarness is a cluster whose rank servers can be killed and restarted
// mid-test, with a chaos transport between the coordinator and the ranks.
// All traffic is inproc: deterministic, no ports, no kernel timing.
type faultHarness struct {
	t     *testing.T
	n     *Network
	ch    *Chaos
	cl    *Cluster
	addrs []string
	srv   []*RankServer
	rank  ServerOptions
}

// newFaultHarness starts r ranks whose own core count is rankThreads (0:
// GOMAXPROCS) behind a chaos transport seeded with seed.
func newFaultHarness(t *testing.T, r int, seed int64, opt ClusterOptions, rankThreads int) *faultHarness {
	t.Helper()
	h := &faultHarness{
		t:     t,
		n:     NewNetwork(),
		addrs: make([]string, r),
		srv:   make([]*RankServer, r),
		rank:  ServerOptions{Local: core.Options{Threads: rankThreads}},
	}
	h.ch = NewChaos(h.n, seed)
	for i := 0; i < r; i++ {
		h.addrs[i] = fmt.Sprintf("inproc://fault-%s-%d", t.Name(), i)
		s, err := ListenRank(h.n, h.addrs[i], h.rank)
		if err != nil {
			t.Fatal(err)
		}
		h.srv[i] = s
	}
	t.Cleanup(func() {
		for _, s := range h.srv {
			if s != nil {
				s.Close()
			}
		}
	})
	opt.Transport = h.ch
	cl, err := ConnectCluster(h.n, h.addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	h.cl = cl
	t.Cleanup(func() { cl.Close() })
	return h
}

// kill crashes rank i: the server goes away and every connection to it —
// including the coordinator's — is severed, exactly like a dead process.
func (h *faultHarness) kill(i int) {
	h.t.Helper()
	h.srv[i].Close()
	h.srv[i] = nil
}

// restart brings rank i back at the same address with empty state.
func (h *faultHarness) restart(i int) {
	h.t.Helper()
	s, err := ListenRank(h.n, h.addrs[i], h.rank)
	if err != nil {
		h.t.Fatal(err)
	}
	h.srv[i] = s
}

func TestTimeoutsValidate(t *testing.T) {
	for _, bad := range []Timeouts{
		{Dial: -time.Second},
		{RPC: -time.Nanosecond},
		{Heartbeat: -time.Millisecond},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Timeouts %+v validated without error", bad)
		}
	}
	if err := (Timeouts{}).Validate(); err != nil {
		t.Errorf("zero Timeouts rejected: %v", err)
	}
	d := Timeouts{}.withDefaults()
	if d.Dial != 5*time.Second || d.RPC != 30*time.Second || d.Heartbeat != time.Second {
		t.Errorf("defaults = %+v", d)
	}
	n := NewNetwork()
	if _, err := ConnectCluster(n, []string{"inproc://nowhere"}, ClusterOptions{
		Timeouts: Timeouts{RPC: -1},
	}); err == nil {
		t.Error("ConnectCluster accepted a negative RPC timeout")
	}
}

func TestParseGatherPolicy(t *testing.T) {
	for s, want := range map[string]GatherPolicy{
		"": GatherPartial, "partial": GatherPartial, "failfast": GatherFailFast,
	} {
		got, err := ParseGatherPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseGatherPolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseGatherPolicy("yolo"); err == nil {
		t.Error("ParseGatherPolicy accepted an unknown policy")
	}
}

// TestChaosFaultInjection exercises the chaos transport itself: partitions
// refuse dials and sever live connections, injected errors sever, and an
// injected delay still honors the operation's context.
func TestChaosFaultInjection(t *testing.T) {
	n := NewNetwork()
	ch := NewChaos(n, 5)
	addr := "inproc://chaos-unit"
	s, err := ListenRank(n, addr, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	ch.Partition(addr, true)
	if _, err := ch.Dial(addr); err == nil {
		t.Fatal("dial to a partitioned address succeeded")
	}
	ch.Partition(addr, false)

	c, err := ch.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(ctx, encodePing(7)); err != nil {
		t.Fatal(err)
	}
	reply, err := c.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if echo, _, err := decodeOK(reply); err != nil || echo != 7 {
		t.Fatalf("ping echo = %d, %v", echo, err)
	}

	ch.SetErrorRate(1)
	if err := c.Send(ctx, encodePing(8)); err == nil {
		t.Fatal("send with error rate 1 succeeded")
	}
	ch.SetErrorRate(0)

	ch.SetDelay(10 * time.Second)
	c2, err := ch.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := c2.Send(cctx, encodePing(9)); err == nil {
		t.Fatal("delayed send ignored its context")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancelled delayed send took %v", el)
	}
	ch.SetDelay(0)

	c3, err := ch.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ch.Partition(addr, true)
	if err := c3.Send(ctx, encodePing(10)); err == nil {
		t.Fatal("send over a partitioned connection succeeded")
	}
}

// TestRPCTimeoutBoundsExchange: a peer that accepts and reads but never
// replies must fail the exchange at the RPC timeout — not hang on the old
// fixed connection deadline, and not forever.
func TestRPCTimeoutBoundsExchange(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c) // silent peer: reads everything, says nothing
		}
	}()
	n := NewNetwork()
	cl, err := ConnectCluster(n, []string{ln.Addr().String()}, ClusterOptions{
		Timeouts: Timeouts{RPC: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = cl.streamCall(0, encodePing(1), "ping")
	if err == nil {
		t.Fatal("exchange with a silent peer succeeded")
	}
	if !isTransportErr(err) {
		t.Fatalf("silent-peer error %v is not a transport error", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("exchange with a silent peer took %v, want ~100ms", el)
	}
	if st := cl.ranks[0].getState(); st == RankUp {
		t.Error("rank still up after a timed-out exchange")
	}
}

// TestStreamRankDeathAttribution kills a rank under a live sharded stream
// and checks the whole degradation contract: mutations commit on the
// coordinator and surface DegradedError with the failed rank and phase
// attributed, gathers and single-voxel reads answer the live rank's share
// at reduced coverage, snapshots fail fast with ErrRankDown, the
// coordinator's live count stays exact — and a heal restores parity with
// the single-process reference.
func TestStreamRankDeathAttribution(t *testing.T) {
	h := newFaultHarness(t, 2, 1, ClusterOptions{}, 0)
	spec := testSpec(t, 20, 1)
	pts := testPoints(400, spec.Domain, 7)
	sg, err := h.cl.NewStream(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Release()
	u, err := core.NewUpdater(spec, core.UpdaterConfig{Options: core.Options{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Release()

	if err := sg.Add(pts[:200]...); err != nil {
		t.Fatal(err)
	}
	u.Add(pts[:200]...)
	compareShardStream(t, sg, u)

	h.kill(1)

	// Mid-ingest: the coordinator commits, the dead rank is attributed.
	err = sg.Add(pts[200:300]...)
	u.Add(pts[200:300]...)
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("ingest with a dead rank returned %v, want DegradedError", err)
	}
	var re *RankError
	if !errors.As(de.Err, &re) || re.Rank != 1 || re.Phase != "ingest" {
		t.Fatalf("degraded cause = %v, want rank 1 ingest", de.Err)
	}
	if de.Coverage != (Coverage{Live: 1, Total: 2}) {
		t.Fatalf("degraded coverage = %+v", de.Coverage)
	}
	if sg.N() != u.N() {
		t.Fatalf("coordinator live count %d diverged from reference %d", sg.N(), u.N())
	}

	// Mid-advance: the slide still commits, counts are valid, and the
	// failure is attributed to the advance phase.
	to := spec.Domain.T0 + spec.Domain.GT + 5*spec.TRes
	ga, ge, err := sg.AdvanceTo(to)
	ua, ue := u.AdvanceTo(to)
	if ga != ua || ge != ue {
		t.Fatalf("degraded advance = (%d,%d), reference (%d,%d)", ga, ge, ua, ue)
	}
	if !errors.As(err, &de) {
		t.Fatalf("advance with a dead rank returned %v, want DegradedError", err)
	}
	if !errors.As(de.Err, &re) || re.Rank != 1 || re.Phase != "advance" {
		t.Fatalf("degraded cause = %v, want rank 1 advance", de.Err)
	}
	if !errors.Is(de.Err, ErrRankDown) {
		t.Fatalf("second strike on a severed rank should fail fast, got %v", de.Err)
	}
	if sg.N() != u.N() {
		t.Fatalf("coordinator live count %d after a degraded advance, reference %d", sg.N(), u.N())
	}

	// Reads thin instead of failing: they answer the live rank's share of
	// the events (the even routing numbers) over the global live count.
	share0, err := core.NewUpdater(spec, core.UpdaterConfig{Options: core.Options{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer share0.Release()
	share0.Add(share(pts[:200], 0, 2, 0)...)
	share0.Add(share(pts[200:300], 200, 2, 0)...)
	share0.AdvanceTo(to)
	thinned := 1 / float64(u.N())
	degraded := Coverage{Live: 1, Total: 2}
	mass, cov, err := sg.BoxMassCov(sg.Spec().Bounds())
	want, _ := share0.BoxSumRaw(sg.Spec().Bounds())
	want *= thinned * spec.SRes * spec.SRes * spec.TRes
	if err != nil || cov != degraded || !closeTo(mass, want) {
		t.Fatalf("degraded box mass %g (cov %+v, %v), want the live share %g", mass, cov, err, want)
	}
	top, cov, err := sg.TopKCov(4)
	wantTop, _ := share0.TopKScaled(4, thinned)
	if err != nil || cov != degraded || len(top) != len(wantTop) {
		t.Fatalf("degraded top-k %v (cov %+v, %v), want the live share's %v", top, cov, err, wantTop)
	}
	for i := range top {
		if !closeTo(top[i].V, wantTop[i].V) {
			t.Fatalf("degraded top-k[%d] = %g, want the live share's %g", i, top[i].V, wantTop[i].V)
		}
	}
	for _, vd := range mustTopK(t, u, 3) {
		v, cov, err := sg.AtCov(vd.X, vd.Y, vd.T)
		if err != nil || cov != degraded {
			t.Fatalf("degraded At(%d,%d,%d): cov %+v, err %v", vd.X, vd.Y, vd.T, cov, err)
		}
		if want := share0.Ring().At(vd.X, vd.Y, vd.T) * thinned; !closeTo(v, want) || v >= vd.V {
			t.Fatalf("degraded At(%d,%d,%d) = %g, want the live share %g below the full %g", vd.X, vd.Y, vd.T, v, want, vd.V)
		}
	}
	if _, err := sg.Snapshot(nil); !errors.Is(err, ErrRankDown) {
		t.Fatalf("snapshot with a dead rank = %v, want ErrRankDown", err)
	}

	// Heal: restart, probe, full coverage, exact parity again.
	h.restart(1)
	h.cl.Probe()
	if cov := sg.Coverage(); cov.Degraded() {
		t.Fatalf("coverage %+v after heal", cov)
	}
	if h.cl.Heals() == 0 {
		t.Error("heal counter did not advance")
	}
	compareShardStream(t, sg, u)
}

// TestGatherFailFast: under the failfast policy a degraded gather is an
// attributed error, never a silent partial answer.
func TestGatherFailFast(t *testing.T) {
	h := newFaultHarness(t, 2, 1, ClusterOptions{Policy: GatherFailFast}, 0)
	spec := testSpec(t, 20, 1)
	sg, err := h.cl.NewStream(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Release()
	if err := sg.Add(testPoints(200, spec.Domain, 3)...); err != nil {
		t.Fatal(err)
	}
	h.kill(1)
	var re *RankError
	if _, _, err := sg.BoxMassCov(spec.Bounds()); err == nil {
		t.Fatal("failfast box mass answered with a dead rank")
	} else if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("failfast box mass error not attributed: %v", err)
	}
	if _, _, err := sg.TopKCov(4); err == nil {
		t.Fatal("failfast top-k answered with a dead rank")
	}
}

// TestReseedBitwiseMatchesUninterrupted: a cluster that lost a rank
// mid-stream and healed it by replay must end bitwise identical to a
// cluster that never failed — same slab carving, same message sequence,
// same Updater state, voxel for voxel with ==, not a tolerance.
func TestReseedBitwiseMatchesUninterrupted(t *testing.T) {
	for _, p := range rankStrips {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) { testReseedBitwise(t, p) })
	}
}

// rankStrips are the strip counts the re-seed and chaos suites run the
// rank updaters at: every batch applied inline, or split over two strips.
var rankStrips = []int{1, 2}

func testReseedBitwise(t *testing.T, p int) {
	spec := testSpec(t, 24, 1)
	pts := testPoints(600, spec.Domain, 9)
	h := newFaultHarness(t, 2, 1, ClusterOptions{}, p)
	h2 := newFaultHarness(t, 2, 2, ClusterOptions{}, p)
	sg, err := h.cl.NewStream(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Release()
	ref, err := h2.cl.NewStream(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()

	step := func(f func(*StreamGroup) error, degradedOK bool) {
		t.Helper()
		if err := f(sg); err != nil {
			var de *DegradedError
			if !degradedOK || !errors.As(err, &de) {
				t.Fatal(err)
			}
		}
		if err := f(ref); err != nil {
			t.Fatal(err)
		}
	}
	add := func(batch []grid.Point) func(*StreamGroup) error {
		return func(g *StreamGroup) error { return g.Add(batch...) }
	}
	adv := func(to float64) func(*StreamGroup) error {
		return func(g *StreamGroup) error { _, _, err := g.AdvanceTo(to); return err }
	}

	step(add(pts[:300]), false)
	h.kill(1)
	step(add(pts[300:450]), true)
	step(adv(spec.Domain.T0+spec.Domain.GT+4*spec.TRes), true)
	late := make([]grid.Point, 0, 150)
	for _, p := range pts[450:] {
		p.T += 4 * spec.TRes
		late = append(late, p)
	}
	step(add(late), true)
	h.restart(1)
	h.cl.Probe()
	if cov := sg.Coverage(); cov.Degraded() {
		t.Fatalf("coverage %+v after heal", cov)
	}

	snap, err := sg.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	want, err := ref.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Release()
	for i := range want.Data {
		if snap.Data[i] != want.Data[i] {
			t.Fatalf("voxel %d: healed %v, uninterrupted %v — replay is not bitwise", i, snap.Data[i], want.Data[i])
		}
	}
}

// TestChaosRandomKillHealMatchesReference is the property test: across
// seeded random op sequences with a rank killed and healed at random
// points, every answer while the rank is down carries coverage < 1 —
// exactly then — and after healing the cluster agrees with a
// single-process core.Updater within 1e-9 on every query surface.
func TestChaosRandomKillHealMatchesReference(t *testing.T) {
	for _, seed := range []int64{3, 17, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, p := range rankStrips {
				t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					r := 2 + rng.Intn(2)
					h := newFaultHarness(t, r, seed, ClusterOptions{}, p)
					spec := testSpec(t, 24, 1)
					pts := testPoints(900, spec.Domain, uint64(seed))
					sg, err := h.cl.NewStream(spec, p)
					if err != nil {
						t.Fatal(err)
					}
					defer sg.Release()
					u, err := core.NewUpdater(spec, core.UpdaterConfig{Options: core.Options{Threads: 1}})
					if err != nil {
						t.Fatal(err)
					}
					defer u.Release()

					killAt := 2 + rng.Intn(4)
					healAt := killAt + 1 + rng.Intn(4)
					down := -1
					next := 0
					lead := 0 // layers advanced past the initial window
					for op := 0; op < 12; op++ {
						if op == killAt {
							down = rng.Intn(r)
							h.kill(down)
							h.ch.Partition(h.addrs[down], true)
						}
						if op == healAt {
							h.ch.Partition(h.addrs[down], false)
							h.restart(down)
							h.cl.Probe()
							if cov := sg.Coverage(); cov.Degraded() {
								t.Fatalf("op %d: coverage %+v right after heal", op, cov)
							}
							down = -1
						}
						if rng.Float64() < 0.7 && next < len(pts) {
							end := min(next+80, len(pts))
							batch := make([]grid.Point, 0, end-next)
							for _, p := range pts[next:end] {
								p.T += float64(lead) * spec.TRes // keep the batch inside the slid window
								batch = append(batch, p)
							}
							next = end
							err := sg.Add(batch...)
							u.Add(batch...)
							var de *DegradedError
							if down < 0 && err != nil {
								t.Fatalf("op %d: healthy ingest failed: %v", op, err)
							}
							if err != nil && !errors.As(err, &de) {
								t.Fatalf("op %d: degraded ingest returned %v, want DegradedError", op, err)
							}
						} else {
							lead += 1 + rng.Intn(2)
							to := spec.Domain.T0 + spec.Domain.GT + float64(lead)*spec.TRes
							ga, ge, err := sg.AdvanceTo(to)
							ua, ue := u.AdvanceTo(to)
							if ga != ua || ge != ue {
								t.Fatalf("op %d: advance (%d,%d), reference (%d,%d)", op, ga, ge, ua, ue)
							}
							if down < 0 && err != nil {
								t.Fatalf("op %d: healthy advance failed: %v", op, err)
							}
						}
						// Every response must be honest about coverage: degraded
						// exactly while a rank is down, full otherwise.
						_, cov, err := sg.BoxMassCov(spec.Bounds())
						if err != nil {
							t.Fatalf("op %d: box mass under GatherPartial errored: %v", op, err)
						}
						if gotDeg := cov.Degraded(); gotDeg != (down >= 0) {
							t.Fatalf("op %d: coverage %+v with down=%d", op, cov, down)
						}
						if sg.N() != u.N() {
							t.Fatalf("op %d: live count %d diverged from reference %d", op, sg.N(), u.N())
						}
					}
					compareShardStream(t, sg, u)
				})
			}
		})
	}
}

// TestEstimateRetriesAfterRankRestart: a batch estimate whose rank
// connection died (the rank process bounced between requests) must heal
// and retry transparently, returning the exact same volume.
func TestEstimateRetriesAfterRankRestart(t *testing.T) {
	h := newFaultHarness(t, 2, 1, ClusterOptions{}, 0)
	spec := testSpec(t, 20, 1)
	pts := testPoints(500, spec.Domain, 3)
	ref, err := core.Estimate(core.AlgPBSYM, pts, spec, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Grid.Release()

	// Bounce rank 1: the coordinator's connection is now dead but its
	// health state still says up — the first exchange must fail, heal and
	// retry rather than surfacing the blip.
	h.kill(1)
	h.restart(1)
	res, err := h.cl.Estimate(pts, spec, Options{})
	if err != nil {
		t.Fatalf("estimate across a rank bounce: %v", err)
	}
	defer res.Grid.Release()
	if d := maxAbsDiff(ref.Grid, res.Grid); d > 1e-9 {
		t.Errorf("estimate after retry differs by %g", d)
	}
	if h.cl.Heals() == 0 {
		t.Error("estimate recovered without a heal cycle")
	}
}

// TestEstimateCancelsStragglers: when one rank fails for good, the
// estimate must cancel the other ranks' in-flight RPCs and return the
// culprit's error promptly — not wait out a slow rank's full exchange.
func TestEstimateCancelsStragglers(t *testing.T) {
	h := newFaultHarness(t, 2, 1, ClusterOptions{}, 0)
	spec := testSpec(t, 20, 1)
	pts := testPoints(300, spec.Domain, 5)

	// Rank 1 dies for good: server gone and address partitioned, so every
	// retry fails fast. Rank 0 is slowed far beyond the test budget; only
	// cancellation can unblock it.
	h.kill(1)
	h.ch.Partition(h.addrs[1], true)
	h.ch.SetDelay(20 * time.Second)
	start := time.Now()
	_, err := h.cl.Estimate(pts, spec, Options{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("estimate with a dead rank succeeded")
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("estimate error not attributed to the dead rank: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("estimate took %v; stragglers were not cancelled", elapsed)
	}
}

// TestBackgroundMonitorHeals: with a heartbeat monitor running, a killed
// and restarted rank is detected and re-seeded with no manual probe, and
// the stream converges back to exact parity.
func TestBackgroundMonitorHeals(t *testing.T) {
	h := newFaultHarness(t, 2, 1, ClusterOptions{HeartbeatEvery: 2 * time.Millisecond}, 0)
	spec := testSpec(t, 20, 1)
	pts := testPoints(300, spec.Domain, 11)
	sg, err := h.cl.NewStream(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Release()
	u, err := core.NewUpdater(spec, core.UpdaterConfig{Options: core.Options{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Release()
	if err := sg.Add(pts...); err != nil {
		t.Fatal(err)
	}
	u.Add(pts...)

	h.kill(1)
	deadline := time.Now().Add(10 * time.Second)
	for h.cl.rankUp(1) {
		if time.Now().After(deadline) {
			t.Fatal("monitor never noticed the dead rank")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.restart(1)
	for sg.Coverage().Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("monitor never healed the rank; health: %+v", h.cl.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
	compareShardStream(t, sg, u)
}
