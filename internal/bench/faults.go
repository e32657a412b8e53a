package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/grid"
)

// faultsExp measures what a sharded live window costs its clients across a
// rank failure, on the real shard protocol (in-process ranks, so the arc is
// deterministic and free of NIC noise). Each instance runs three phases on
// a 3-rank cluster serving the serving tier's query mix (region mass +
// hotspot top-k against the rank-side sketches):
//
//	healthy    all ranks up — the baseline latency at coverage 1
//	degraded   one rank killed — partial gathers keep answering from the
//	           surviving ranks at coverage 2/3; availability is the
//	           fraction of queries that returned an answer
//	healed     the rank restarted empty and re-seeded by replay; answers
//	           are back at coverage 1 and must match the pre-failure mass
//
// Every phase yields one row with availability, the minimum coverage any
// answer carried, and mean/p99 query latency; the healed row additionally
// records heal_ms, the time from restart to the first full-coverage answer
// (detection + redial + ping + journal replay of the dead rank). The
// committed BENCH_faults.json records this trajectory; the acceptance bar
// is availability 1.0 in every phase under the partial-gather policy.
func (h *harness) faultsExp() (*Report, error) {
	rep := &Report{Exp: "faults",
		Title: "Faults: degraded-gather availability and recovery across a rank failure"}
	insts, err := h.instances()
	if err != nil {
		return nil, err
	}
	tw := newTable(h.cfg.Out, "Instance", "phase", "avail", "cov min",
		"µs/q", "p99 µs", "heal ms")
	for _, inst := range insts {
		s, pts, err := h.load(inst)
		if err != nil {
			return nil, err
		}
		rows, err := h.faultsInstance(inst.Name, pts, s.Spec)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, rows...)
		for _, r := range rows {
			heal := ""
			if v, ok := r.Extra["heal_ms"]; ok {
				heal = fmt.Sprintf("%.2f", v)
			}
			tw.row(inst.Name, r.Algo,
				fmt.Sprintf("%.2f", r.Extra["availability"]),
				fmt.Sprintf("%.2f", r.Extra["coverage_min"]),
				fmt.Sprintf("%.1f", r.Seconds*1e6),
				fmt.Sprintf("%.1f", r.Extra["p99_us"]),
				heal)
		}
	}
	tw.flush(rep.Title, h.cfg)
	return rep, nil
}

// faultsInstance runs the healthy → degraded → healed arc for one catalog
// instance and returns the three phase rows. The healed answers double as
// a correctness check: after replay re-seeding they must agree with the
// pre-failure sketch-merge to accumulation rounding.
func (h *harness) faultsInstance(name string, pts []grid.Point, spec grid.Spec) ([]Row, error) {
	const topK = 10
	const ranks = 3
	const victim = 1
	fail := func(err error) ([]Row, error) {
		return nil, fmt.Errorf("bench: faults: %s: %w", name, err)
	}

	n := dist.NewNetwork()
	addrs := make([]string, ranks)
	servers := make([]*dist.RankServer, ranks)
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}()
	for i := range addrs {
		addrs[i] = fmt.Sprintf("inproc://bench-fault%d", i)
		s, err := dist.ListenRank(n, addrs[i], dist.ServerOptions{})
		if err != nil {
			return fail(err)
		}
		servers[i] = s
	}
	// No background monitor: detection and healing happen on the query
	// path (plus explicit Probe), keeping the phases deterministic.
	cluster, err := dist.ConnectCluster(n, addrs, dist.ClusterOptions{})
	if err != nil {
		return fail(err)
	}
	defer cluster.Close()
	sg, err := cluster.NewStream(spec, 1)
	if err != nil {
		return fail(err)
	}
	defer sg.Release()
	if err := sg.Add(pts...); err != nil {
		return fail(err)
	}

	// The query box: the central ~1/8 of the domain, a drill-down region.
	b := spec.Bounds()
	box := grid.Box{
		X0: b.X1 / 4, X1: b.X1 / 4 * 3, Y0: b.Y1 / 4, Y1: b.Y1 / 4 * 3,
		T0: b.T1 / 4, T1: b.T1 / 4 * 3,
	}

	// Warm the rank-side sketches so every phase measures steady state,
	// and pin the full-coverage reference answer.
	refMass, err := sg.BoxMass(box)
	if err != nil {
		return fail(err)
	}
	if _, err := sg.TopK(topK); err != nil {
		return fail(err)
	}

	iters := max(h.cfg.Repeats*10, 10)
	// phase runs the serving-tier query mix and reports availability (the
	// fraction of queries answered), the weakest coverage any answer
	// carried, and the latency distribution.
	phase := func(label string) (Row, error) {
		lats := make([]float64, 0, iters)
		answered := 0
		covMin := math.Inf(1)
		for i := 0; i < iters; i++ {
			start := time.Now()
			_, covM, errM := sg.BoxMassCov(box)
			_, covK, errK := sg.TopKCov(topK)
			lats = append(lats, time.Since(start).Seconds())
			if errM != nil || errK != nil {
				continue
			}
			answered++
			covMin = math.Min(covMin, math.Min(covM.Fraction(), covK.Fraction()))
		}
		sort.Float64s(lats)
		var sum float64
		for _, l := range lats {
			sum += l
		}
		if answered == 0 {
			covMin = 0
		}
		return Row{
			Instance: name, Algo: label, Threads: 1,
			Seconds: sum / float64(len(lats)),
			Extra: map[string]float64{
				"ranks":        ranks,
				"n":            float64(len(pts)),
				"queries":      float64(iters),
				"availability": float64(answered) / float64(iters),
				"coverage_min": covMin,
				"p99_us":       lats[min(len(lats)-1, len(lats)*99/100)] * 1e6,
			},
		}, nil
	}

	healthy, err := phase("healthy")
	if err != nil {
		return fail(err)
	}

	// Kill the middle rank: its listener and every live connection die,
	// exactly like a dead process. The first gather after this eats the
	// detection cost; it is part of the degraded phase by design.
	servers[victim].Close()
	servers[victim] = nil
	degraded, err := phase("degraded")
	if err != nil {
		return fail(err)
	}

	// Restart the rank empty on its original address and measure the time
	// to the first full-coverage answer: probe (dial + ping + replay
	// re-seed of the dead rank) plus the verifying gather.
	rs, err := dist.ListenRank(n, addrs[victim], dist.ServerOptions{})
	if err != nil {
		return fail(err)
	}
	servers[victim] = rs
	healStart := time.Now()
	for tries := 0; sg.Coverage().Degraded(); tries++ {
		if tries >= 10 {
			return fail(fmt.Errorf("rank %d still degraded after %d probes", victim, tries))
		}
		cluster.Probe()
	}
	healedMass, cov, err := sg.BoxMassCov(box)
	if err != nil {
		return fail(err)
	}
	healMS := time.Since(healStart).Seconds() * 1e3
	if cov.Degraded() {
		return fail(fmt.Errorf("post-heal coverage %d/%d, want full", cov.Live, cov.Total))
	}
	if math.Abs(healedMass-refMass) > 1e-9*math.Max(1, math.Abs(refMass)) {
		return fail(fmt.Errorf("healed mass %g disagrees with pre-failure %g", healedMass, refMass))
	}

	healed, err := phase("healed")
	if err != nil {
		return fail(err)
	}
	healed.Extra["heal_ms"] = healMS
	return []Row{healthy, degraded, healed}, nil
}
