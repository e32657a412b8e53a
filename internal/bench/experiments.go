package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
)

// table2 prints the instance catalog at both full (paper) and scaled size.
func (h *harness) table2() (*Report, error) {
	rep := &Report{Exp: "table2", Title: "Table 2: properties of the datasets"}
	insts, err := h.instances()
	if err != nil {
		return nil, err
	}
	tw := newTable(h.cfg.Out, "Instance", "n(full)", "grid(full)", "Hs", "Ht",
		"n(scaled)", "grid(scaled)", "Hs'", "Ht'", "MB'")
	for _, inst := range insts {
		s, err := inst.Scaled(h.cfg.Scale)
		if err != nil {
			return nil, err
		}
		row := Row{Instance: inst.Name, Extra: map[string]float64{
			"n_full": float64(inst.N), "n": float64(s.NPoints),
			"gx": float64(s.Spec.Gx), "gy": float64(s.Spec.Gy), "gt": float64(s.Spec.Gt),
			"hs": float64(s.Spec.Hs), "ht": float64(s.Spec.Ht),
			"mb": float64(s.Spec.Bytes()) / 1e6,
		}}
		rep.Rows = append(rep.Rows, row)
		tw.row(inst.Name,
			fmt.Sprintf("%d", inst.N),
			fmt.Sprintf("%dx%dx%d", inst.Gx, inst.Gy, inst.Gt),
			fmt.Sprintf("%d", inst.Hs), fmt.Sprintf("%d", inst.Ht),
			fmt.Sprintf("%d", s.NPoints),
			fmt.Sprintf("%dx%dx%d", s.Spec.Gx, s.Spec.Gy, s.Spec.Gt),
			fmt.Sprintf("%d", s.Spec.Hs), fmt.Sprintf("%d", s.Spec.Ht),
			fmt.Sprintf("%.1f", float64(s.Spec.Bytes())/1e6))
	}
	tw.flush(rep.Title, h.cfg)
	return rep, nil
}

// table3 reproduces the sequential algorithm comparison. VB and VB-DEC are
// skipped (left blank, as in the paper) when their estimated cost exceeds
// VBOpsLimit.
func (h *harness) table3() (*Report, error) {
	rep := &Report{Exp: "table3", Title: "Table 3: runtime of sequential algorithms (seconds)"}
	insts, err := h.instances()
	if err != nil {
		return nil, err
	}
	tw := newTable(h.cfg.Out, "Instance", "VB", "VB-DEC", "PB", "PB-DISK", "PB-BAR", "PB-SYM", "speedup")
	for _, inst := range insts {
		s, pts, err := h.load(inst)
		if err != nil {
			return nil, err
		}
		spec := s.Spec
		cells := make(map[string]string)
		times := make(map[string]float64)

		vbOps := float64(spec.Voxels()) * float64(len(pts))
		cyl := float64(2*spec.Hs+1) * float64(2*spec.Hs+1) * float64(2*spec.Ht+1)
		vbdecOps := 27*float64(len(pts))*cyl + float64(spec.Voxels())
		for _, alg := range core.SequentialAlgorithms() {
			skip := (alg == core.AlgVB && vbOps > h.cfg.VBOpsLimit) ||
				(alg == core.AlgVBDEC && vbdecOps > h.cfg.VBOpsLimit)
			if skip {
				cells[alg] = ""
				continue
			}
			row := h.run(inst.Name, alg, pts, spec, core.Options{Threads: 1})
			times[alg] = row.Seconds
			cells[alg] = fmt.Sprintf("%.3f", row.Seconds)
			row.Extra = map[string]float64{"vb_ops": vbOps}
			rep.Rows = append(rep.Rows, row)
		}
		speedup := ""
		if tPB, ok := times[core.AlgPB]; ok && times[core.AlgPBSYM] > 0 {
			speedup = fmt.Sprintf("%.3f", tPB/times[core.AlgPBSYM])
		}
		tw.row(inst.Name, cells[core.AlgVB], cells[core.AlgVBDEC], cells[core.AlgPB],
			cells[core.AlgPBDISK], cells[core.AlgPBBAR], cells[core.AlgPBSYM], speedup)
	}
	tw.flush(rep.Title, h.cfg)
	return rep, nil
}

// fig7 reports the initialization/compute breakdown of PB-SYM.
func (h *harness) fig7() (*Report, error) {
	rep := &Report{Exp: "fig7", Title: "Figure 7: breakdown of the runtime of PB-SYM"}
	insts, err := h.instances()
	if err != nil {
		return nil, err
	}
	tw := newTable(h.cfg.Out, "Instance", "total(s)", "init(s)", "compute(s)", "init%")
	for _, inst := range insts {
		s, pts, err := h.load(inst)
		if err != nil {
			return nil, err
		}
		var init, comp float64
		for r := 0; r < h.cfg.Repeats; r++ {
			res, err := core.Estimate(core.AlgPBSYM, pts, s.Spec, core.Options{Threads: 1})
			if err != nil {
				return nil, err
			}
			i := res.Phases.Init.Seconds()
			c := res.Phases.Compute.Seconds()
			res.Grid.Release()
			if r == 0 || i+c < init+comp {
				init, comp = i, c
			}
		}
		total := init + comp
		frac := 0.0
		if total > 0 {
			frac = init / total
		}
		rep.Rows = append(rep.Rows, Row{
			Instance: inst.Name, Algo: core.AlgPBSYM, Threads: 1, Seconds: total,
			Extra: map[string]float64{"init": init, "compute": comp, "init_frac": frac},
		})
		tw.row(inst.Name, fmt.Sprintf("%.3f", total), fmt.Sprintf("%.3f", init),
			fmt.Sprintf("%.3f", comp), fmt.Sprintf("%.0f%%", frac*100))
	}
	tw.flush(rep.Title, h.cfg)
	return rep, nil
}

// fig8 sweeps PB-SYM-DR over thread counts; OOM cells reproduce the
// paper's missing bars.
func (h *harness) fig8() (*Report, error) {
	rep := &Report{Exp: "fig8", Title: "Figure 8: speedup of PB-SYM-DR per thread count"}
	insts, err := h.instances()
	if err != nil {
		return nil, err
	}
	headers := []string{"Instance"}
	for _, p := range h.cfg.Threads {
		headers = append(headers, fmt.Sprintf("P=%d", p))
	}
	tw := newTable(h.cfg.Out, headers...)
	for _, inst := range insts {
		s, pts, err := h.load(inst)
		if err != nil {
			return nil, err
		}
		cells := []string{inst.Name}
		if h.cfg.Modeled {
			sw := h.sweep(inst.Name, pts, s.Spec)
			limit := h.budgetBytes(inst, s.Spec)
			for _, p := range h.cfg.Threads {
				row := h.modelRow(inst.Name, sw.DR(p), sw.SeqTime(), [3]int{}, p, limit)
				rep.Rows = append(rep.Rows, row)
				cells = append(cells, speedupCell(row))
			}
		} else {
			base := h.seqBaseline(inst.Name, pts, s.Spec)
			for _, p := range h.cfg.Threads {
				row := h.run(inst.Name, core.AlgPBSYMDR, pts, s.Spec,
					core.Options{Threads: p, Budget: h.budget(inst, s.Spec)})
				if !row.OOM && row.Seconds > 0 {
					row.Speedup = base / row.Seconds
				}
				rep.Rows = append(rep.Rows, row)
				cells = append(cells, speedupCell(row))
			}
		}
		tw.row(cells...)
	}
	tw.flush(rep.Title, h.cfg)
	return rep, nil
}

// fig9 measures the single-thread overhead of PB-SYM-DD per decomposition,
// normalized to PB-SYM.
func (h *harness) fig9() (*Report, error) {
	rep := &Report{Exp: "fig9", Title: "Figure 9: overhead of PB-SYM-DD (1 thread, relative to PB-SYM)"}
	insts, err := h.instances()
	if err != nil {
		return nil, err
	}
	headers := []string{"Instance"}
	for _, d := range h.cfg.Decomps {
		headers = append(headers, fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2]))
	}
	tw := newTable(h.cfg.Out, headers...)
	for _, inst := range insts {
		s, pts, err := h.load(inst)
		if err != nil {
			return nil, err
		}
		base := h.seqBaseline(inst.Name, pts, s.Spec)
		cells := []string{inst.Name}
		for _, d := range h.cfg.Decomps {
			row := h.run(inst.Name, core.AlgPBSYMDD, pts, s.Spec,
				core.Options{Threads: 1, Decomp: d})
			rel := 0.0
			if base > 0 {
				rel = row.Seconds / base
			}
			row.Extra = map[string]float64{"rel": rel}
			rep.Rows = append(rep.Rows, row)
			cells = append(cells, fmt.Sprintf("%.2f", rel))
		}
		tw.row(cells...)
	}
	tw.flush(rep.Title, h.cfg)
	return rep, nil
}

// parallelDecompSweep is the shared shape of Figures 10, 11, 13 and 14:
// one parallel algorithm, MaxThreads workers, swept over decompositions,
// reporting speedup against sequential PB-SYM.
func (h *harness) parallelDecompSweep(exp, title, alg string) (*Report, error) {
	rep := &Report{Exp: exp, Title: title + fmt.Sprintf(" (%d threads)", h.cfg.MaxThreads)}
	insts, err := h.instances()
	if err != nil {
		return nil, err
	}
	headers := []string{"Instance"}
	for _, d := range h.cfg.Decomps {
		headers = append(headers, fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2]))
	}
	tw := newTable(h.cfg.Out, headers...)
	for _, inst := range insts {
		s, pts, err := h.load(inst)
		if err != nil {
			return nil, err
		}
		cells := []string{inst.Name}
		if h.cfg.Modeled {
			sw := h.sweep(inst.Name, pts, s.Spec)
			limit := h.budgetBytes(inst, s.Spec)
			for _, d := range h.cfg.Decomps {
				pred := h.predictAlg(alg, sw, d)
				row := h.modelRow(inst.Name, pred, sw.SeqTime(), d, h.cfg.MaxThreads, limit)
				rep.Rows = append(rep.Rows, row)
				cells = append(cells, speedupCell(row))
			}
		} else {
			base := h.seqBaseline(inst.Name, pts, s.Spec)
			for _, d := range h.cfg.Decomps {
				row := h.run(inst.Name, alg, pts, s.Spec, core.Options{
					Threads: h.cfg.MaxThreads, Decomp: d, Budget: h.budget(inst, s.Spec),
				})
				if !row.OOM && row.Seconds > 0 {
					row.Speedup = base / row.Seconds
				}
				rep.Rows = append(rep.Rows, row)
				cells = append(cells, speedupCell(row))
			}
		}
		tw.row(cells...)
	}
	tw.flush(rep.Title, h.cfg)
	return rep, nil
}

// predictAlg maps an algorithm name to its sweep-model prediction.
func (h *harness) predictAlg(alg string, sw *model.Sweep, d [3]int) model.Prediction {
	p := h.cfg.MaxThreads
	switch alg {
	case core.AlgPBSYMDR:
		return sw.DR(p)
	case core.AlgPBSYMDD:
		return sw.DD(d, p)
	case core.AlgPBSYMPD:
		return sw.PD(d, p, model.PDBarrier)
	case core.AlgPBSYMPDSCHED:
		return sw.PD(d, p, model.PDSched)
	case core.AlgPBSYMPDREP:
		return sw.PD(d, p, model.PDRep)
	default:
		return sw.PD(d, p, model.PDSchedRep)
	}
}

// fig12 compares the relative critical path of the checkerboard coloring
// (PB-SYM-PD) against the load-aware coloring (PB-SYM-PD-SCHED) at the
// finest decomposition of the sweep.
func (h *harness) fig12() (*Report, error) {
	d := h.cfg.Decomps[len(h.cfg.Decomps)-1]
	rep := &Report{Exp: "fig12", Title: fmt.Sprintf(
		"Figure 12: relative critical path (%dx%dx%d decomposition)", d[0], d[1], d[2])}
	insts, err := h.instances()
	if err != nil {
		return nil, err
	}
	tw := newTable(h.cfg.Out, "Instance", "PD", "PD-SCHED", "cells", "colors(SCHED)")
	for _, inst := range insts {
		s, pts, err := h.load(inst)
		if err != nil {
			return nil, err
		}
		opt := core.Options{Threads: h.cfg.MaxThreads, Decomp: d}
		pd, err := core.AnalyzePD(pts, s.Spec, opt, false)
		if err != nil {
			return nil, err
		}
		sch, err := core.AnalyzePD(pts, s.Spec, opt, true)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows,
			Row{Instance: inst.Name, Algo: core.AlgPBSYMPD, Decomp: pd.Decomp,
				Extra: map[string]float64{"cp_rel": pd.CriticalPathRel}},
			Row{Instance: inst.Name, Algo: core.AlgPBSYMPDSCHED, Decomp: sch.Decomp,
				Extra: map[string]float64{"cp_rel": sch.CriticalPathRel}})
		tw.row(inst.Name, fmt.Sprintf("%.3f", pd.CriticalPathRel),
			fmt.Sprintf("%.3f", sch.CriticalPathRel),
			fmt.Sprintf("%d", sch.Cells), fmt.Sprintf("%d", sch.Colors))
	}
	tw.flush(rep.Title, h.cfg)
	return rep, nil
}

// fig15 reports the best configuration of every parallel strategy.
func (h *harness) fig15() (*Report, error) {
	rep := &Report{Exp: "fig15", Title: fmt.Sprintf(
		"Figure 15: best configuration per strategy (%d threads)", h.cfg.MaxThreads)}
	insts, err := h.instances()
	if err != nil {
		return nil, err
	}
	strategies := []string{
		core.AlgPBSYMDR, core.AlgPBSYMDD, core.AlgPBSYMPD,
		core.AlgPBSYMPDSCHED, core.AlgPBSYMPDSCHREP,
	}
	headers := append([]string{"Instance"}, strategies...)
	headers = append(headers, "winner")
	tw := newTable(h.cfg.Out, headers...)
	for _, inst := range insts {
		s, pts, err := h.load(inst)
		if err != nil {
			return nil, err
		}
		var base float64
		var sw *model.Sweep
		var limit int64
		if h.cfg.Modeled {
			sw = h.sweep(inst.Name, pts, s.Spec)
			limit = h.budgetBytes(inst, s.Spec)
			base = sw.SeqTime()
		} else {
			base = h.seqBaseline(inst.Name, pts, s.Spec)
		}
		cells := []string{inst.Name}
		bestAlg, bestSpd := "", 0.0
		for _, alg := range strategies {
			best := Row{Instance: inst.Name, Algo: alg, OOM: true}
			decomps := h.cfg.Decomps
			if alg == core.AlgPBSYMDR {
				decomps = [][3]int{{1, 1, 1}} // DR has no decomposition knob
			}
			for _, d := range decomps {
				var row Row
				if h.cfg.Modeled {
					row = h.modelRow(inst.Name, h.predictAlg(alg, sw, d), base, d, h.cfg.MaxThreads, limit)
				} else {
					row = h.run(inst.Name, alg, pts, s.Spec, core.Options{
						Threads: h.cfg.MaxThreads, Decomp: d, Budget: h.budget(inst, s.Spec),
					})
					if !row.OOM && row.Seconds > 0 {
						row.Speedup = base / row.Seconds
					}
				}
				if !row.OOM && row.Speedup > 0 && (best.OOM || row.Speedup > best.Speedup) {
					best = row
				}
			}
			rep.Rows = append(rep.Rows, best)
			cells = append(cells, speedupCell(best))
			if !best.OOM && best.Speedup > bestSpd {
				bestAlg, bestSpd = alg, best.Speedup
			}
		}
		cells = append(cells, bestAlg)
		tw.row(cells...)
	}
	tw.flush(rep.Title, h.cfg)
	return rep, nil
}

func speedupCell(r Row) string {
	if r.OOM {
		return "OOM"
	}
	return fmt.Sprintf("%.2f", r.Speedup)
}
