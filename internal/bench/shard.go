package bench

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/grid"
)

// shardExp measures the gather cost of answering live-window analytics
// across a rank cluster, on the real shard protocol (R in-process ranks, so
// the wire bytes are exactly what TCP ranks would move, without NIC noise):
//
//	grid-gather    the baseline a naive sharded server pays per query:
//	               every rank ships its O(G) raw window (StreamGroup.
//	               Snapshot) and the coordinator scans the merged volume
//	sketch-merge   the rank-side incremental sketches answer instead:
//	               O(1) raw partial sums for region mass, a threshold
//	               top-k gather for hotspots, summed at the coordinator
//
// Every instance yields one row per method with the per-query wire bytes
// (measured at the transport framing layer via Cluster.CommStats) and the
// per-query gather latency. The committed BENCH_shard.json records this
// trajectory; the acceptance bar is ≥10x fewer bytes for sketch-merge at
// the largest benched resolution, with lower latency.
func (h *harness) shardExp() (*Report, error) {
	rep := &Report{Exp: "shard",
		Title: "Shard: per-query gather cost, sketch-merge vs grid-gather"}
	insts, err := h.instances()
	if err != nil {
		return nil, err
	}
	tw := newTable(h.cfg.Out, "Instance", "ranks", "voxels",
		"grid B/q", "sketch B/q", "bytes x", "grid µs", "sketch µs", "lat x")
	for _, inst := range insts {
		s, pts, err := h.load(inst)
		if err != nil {
			return nil, err
		}
		gridRow, skRow, err := h.shardInstance(inst.Name, pts, s.Spec)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, gridRow, skRow)
		tw.row(inst.Name,
			fmt.Sprintf("%.0f", skRow.Extra["ranks"]),
			fmt.Sprintf("%d", s.Spec.Voxels()),
			fmt.Sprintf("%.0f", gridRow.Extra["gather_bytes"]),
			fmt.Sprintf("%.0f", skRow.Extra["gather_bytes"]),
			fmt.Sprintf("%.0f", skRow.Extra["bytes_ratio"]),
			fmt.Sprintf("%.1f", gridRow.Seconds*1e6),
			fmt.Sprintf("%.1f", skRow.Seconds*1e6),
			fmt.Sprintf("%.1f", skRow.Speedup))
	}
	tw.flush(rep.Title, h.cfg)
	return rep, nil
}

// shardInstance runs both gather strategies for one catalog instance and
// returns the (grid-gather, sketch-merge) row pair. The answers double as
// a sanity check: the merged sketches must agree with the gathered volume.
func (h *harness) shardInstance(name string, pts []grid.Point, spec grid.Spec) (Row, Row, error) {
	const topK = 10
	const ranks = 4
	fail := func(err error) (Row, Row, error) {
		return Row{}, Row{}, fmt.Errorf("bench: shard: %s: %w", name, err)
	}

	n := dist.NewNetwork()
	var servers []*dist.RankServer
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	peers := make([]string, ranks)
	for i := range peers {
		s, err := dist.ListenRank(n, fmt.Sprintf("inproc://bench-rank%d", i), dist.ServerOptions{})
		if err != nil {
			return fail(err)
		}
		servers = append(servers, s)
		peers[i] = s.Addr()
	}
	cluster, err := dist.Connect(n, peers)
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

	// The query box: the central ~1/8 of the domain, matching the
	// analytics experiment's drill-down shape.
	b := spec.Bounds()
	box := grid.Box{
		X0: b.X1 / 4, X1: b.X1 / 4 * 3, Y0: b.Y1 / 4, Y1: b.Y1 / 4 * 3,
		T0: b.T1 / 4, T1: b.T1 / 4 * 3,
	}

	commBytes := func() int64 {
		var sum int64
		for _, rc := range cluster.CommStats() {
			sum += rc.Sent + rc.Recv
		}
		return sum
	}
	// measure runs body iters times and returns (seconds, wire bytes) per
	// query. Bytes are deterministic per protocol round trip; the latency
	// is a plain average over the loop.
	measure := func(iters int, body func() error) (float64, float64, error) {
		before := commBytes()
		var sec float64
		for i := 0; i < iters; i++ {
			var err error
			sec += timeLoop(1, func() {
				if e := body(); e != nil {
					err = e
				}
			})
			if err != nil {
				return 0, 0, err
			}
		}
		return sec / float64(iters), float64(commBytes()-before) / float64(iters), nil
	}

	// Warm the rank-side sketches (first query pays the full lazy build)
	// so both strategies are measured in steady state.
	var sketchMass float64
	if sketchMass, err = sg.BoxMass(box); err != nil {
		return fail(err)
	}
	sketchTop, err := sg.TopK(topK)
	if err != nil {
		return fail(err)
	}

	iters := h.cfg.Repeats * 10
	// One "query" alternates region mass and top-k, the endpoint mix the
	// serving tier sees; bytes and seconds are per query either way.
	skSec, skBytes, err := measure(iters, func() error {
		if _, e := sg.BoxMass(box); e != nil {
			return e
		}
		_, e := sg.TopK(topK)
		return e
	})
	if err != nil {
		return fail(err)
	}

	var gridMass, gridPeak float64
	gSec, gBytes, err := measure(max(iters/5, 2), func() error {
		snap, e := sg.Snapshot(nil)
		if e != nil {
			return e
		}
		gridMass = snap.BoxMass(box)
		gridPeak = snap.TopK(topK)[0].V
		snap.Release()
		return nil
	})
	if err != nil {
		return fail(err)
	}
	// Per-query cost of the baseline: the snapshot loop answered both
	// endpoints from one gather, so its bytes/latency already amortize the
	// way a real server would.
	if math.Abs(gridMass-sketchMass) > 1e-9*math.Max(1, math.Abs(gridMass)) {
		return fail(fmt.Errorf("sketch-merge mass %g disagrees with grid-gather %g", sketchMass, gridMass))
	}
	if len(sketchTop) == 0 || math.Abs(gridPeak-sketchTop[0].V) > 1e-9*math.Max(1, math.Abs(gridPeak)) {
		return fail(fmt.Errorf("sketch-merge peak disagrees with grid-gather %g", gridPeak))
	}

	mk := func(algo string, sec, bytes float64) Row {
		return Row{
			Instance: name, Algo: algo, Threads: 1, Seconds: sec,
			Extra: map[string]float64{
				"ranks":        ranks,
				"n":            float64(len(pts)),
				"voxels":       float64(spec.Voxels()),
				"gather_bytes": bytes,
				"gather_s":     sec,
			},
		}
	}
	gridRow := mk("grid-gather", gSec, gBytes)
	skRow := mk("sketch-merge", skSec, skBytes)
	skRow.Extra["bytes_ratio"] = gBytes / math.Max(skBytes, 1)
	skRow.Speedup = gSec / skSec
	return gridRow, skRow, nil
}
