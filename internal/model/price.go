package model

// Admission pricing: the serving tier prices every work request at the
// door with the Section 6.5 model, so overload is predicted (and shed
// with an honest Retry-After) instead of discovered by timing out. These
// helpers stay O(1) — no CellLoads, no schedule simulation — because they
// run on every request.

import (
	"repro/internal/core"
	"repro/internal/grid"
)

// EstimateSeconds predicts the wall-clock seconds of estimating spec over
// n events with the named algorithm on `threads` threads. Unknown or
// unpredicted algorithms fall back to the PB-SYM prediction (every
// strategy shares its cylinder work; the fallback only misses the
// parallel-section speedups, which overprices — the safe direction for
// admission control).
func (m Machine) EstimateSeconds(spec grid.Spec, n int, alg string, threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	m.Threads = threads
	m.Mem = 0
	preds := Predict(Workload{Spec: spec, N: n}, m)
	for _, p := range preds {
		if p.Algorithm == alg {
			return p.Seconds
		}
	}
	for _, p := range preds {
		if p.Algorithm == core.AlgPBSYM {
			return p.Seconds
		}
	}
	return preds[0].Seconds
}

// IngestSeconds predicts folding n events into a live stream window:
// each event applies one kernel cylinder, exactly the per-point work of
// the batch model without the grid init, on one core. The updater splits
// each batch over every core (X strips), so on a multi-core host this is
// an upper bound.
func (m Machine) IngestSeconds(spec grid.Spec, n int) float64 {
	upd, ske, tke := Workload{Spec: spec}.perPoint()
	return float64(n) * (upd/m.UpdatePerSec + ske/m.SpatialEvalPerSec + tke/m.TemporalEvalPerSec)
}

// AdvanceSeconds bounds a window advance by one pass over the window
// grid. Since the updater writes each event's whole cylinder at ingest,
// into the window and the ring's Ht hidden layers past its end, an advance
// applies no event (beyond the few ingested ahead of the window) and only
// rotates the ring and zeroes the freed layers — one per layer advanced,
// so the one-pass figure bounds every advance short of a jump past the
// whole ring, which zeroes Ht layers more. While advances re-applied every
// event near the window's end it under-priced them about sixfold
// (benchmark `model.advance_ratio` 0.15).
func (m Machine) AdvanceSeconds(spec grid.Spec) float64 {
	return float64(spec.Bytes()) / m.InitBytesPerSec
}
