// Package sched provides scheduling analysis for the colored-subdomain
// dependency DAGs of point-based parallel STKDE: a greedy list-scheduling
// simulator (to predict makespans and validate Graham's bound) and the
// moldable-task replication planner behind PB-SYM-PD-REP (Section 5.2),
// which replicates subdomains along the critical path until the path is
// short enough to not limit parallelism.
package sched

import (
	"container/heap"

	"repro/internal/stencil"
)

// Simulate runs greedy list scheduling of the DAG on p identical machines,
// picking the highest-weight ready task first, and returns the simulated
// makespan. It models exactly what the par.Graph executor, which runs
// every parallel PB-SYM strategy, does with a graph whose task priorities
// are the given weights (PD-SCHED's) when task durations equal them.
func Simulate(d stencil.DAG, w []float64, p int) float64 {
	if d.N == 0 {
		return 0
	}
	if p < 1 {
		p = 1
	}
	indeg := make([]int, d.N)
	for v := 0; v < d.N; v++ {
		indeg[v] = len(d.Preds[v])
	}
	var ready prioHeap
	for v := 0; v < d.N; v++ {
		if indeg[v] == 0 {
			heap.Push(&ready, prioItem{id: v, key: w[v]})
		}
	}
	var running finishHeap
	free := p
	clock := 0.0
	makespan := 0.0
	done := 0
	for done < d.N {
		for free > 0 && ready.Len() > 0 {
			t := heap.Pop(&ready).(prioItem)
			heap.Push(&running, finishItem{id: t.id, at: clock + w[t.id]})
			free--
		}
		if running.Len() == 0 {
			// Remaining tasks unreachable: cyclic graph. Report what we have.
			break
		}
		f := heap.Pop(&running).(finishItem)
		clock = f.at
		if clock > makespan {
			makespan = clock
		}
		free++
		done++
		for _, s := range d.Succs[f.id] {
			indeg[s]--
			if indeg[s] == 0 {
				heap.Push(&ready, prioItem{id: s, key: w[s]})
			}
		}
	}
	return makespan
}

// Replication is the outcome of planning for PB-SYM-PD-REP: how many ways
// each subdomain's point processing is split. Factor[v] == 1 means the
// subdomain runs as a single task writing directly to the shared grid;
// Factor[v] == k > 1 means k replica tasks with private buffers followed by
// a reduction.
type Replication struct {
	Factor []int
}

// PlanReplication implements the paper's PB-SYM-PD-REP planning loop: as
// long as the critical path of the dependency graph exceeds T1/(2P), the
// tasks on the critical path are replicated one additional time and the
// critical path is recomputed.
//
// w[v] is the base processing weight of subdomain v; overhead(v, k) is the
// extra weight a k-way split adds to the chain through v (buffer
// initialization plus reduction), so the effective chain weight through v
// is w[v]/k + overhead(v, k). Factors are capped at p: splitting further
// than the machine width cannot shorten the schedule.
func PlanReplication(d stencil.DAG, w []float64, p int, overhead func(v, k int) float64) Replication {
	n := d.N
	factor := make([]int, n)
	for i := range factor {
		factor[i] = 1
	}
	if n == 0 || p <= 1 {
		return Replication{Factor: factor}
	}
	threshold := stencil.TotalWork(w) / (2 * float64(p))
	eff := make([]float64, n)
	const maxRounds = 256
	for rounds := 0; rounds < maxRounds; rounds++ {
		for v := 0; v < n; v++ {
			eff[v] = effective(w[v], factor[v], v, overhead)
		}
		cp, chain := stencil.CriticalPath(d, eff)
		if cp <= threshold {
			break
		}
		progress := false
		for _, v := range chain {
			if factor[v] < p {
				// Only split when it actually shortens the chain through v;
				// overhead can make further splits counterproductive.
				if effective(w[v], factor[v]+1, v, overhead) < eff[v] {
					factor[v]++
					progress = true
				}
			}
		}
		if !progress {
			break
		}
	}
	return Replication{Factor: factor}
}

func effective(w float64, k, v int, overhead func(v, k int) float64) float64 {
	e := w / float64(k)
	if k > 1 && overhead != nil {
		e += overhead(v, k)
	}
	return e
}

type prioItem struct {
	id  int
	key float64
}

type prioHeap []prioItem

func (h prioHeap) Len() int { return len(h) }
func (h prioHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key > h[j].key
	}
	return h[i].id < h[j].id
}
func (h prioHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *prioHeap) Push(x interface{}) { *h = append(*h, x.(prioItem)) }
func (h *prioHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type finishItem struct {
	id int
	at float64
}

type finishHeap []finishItem

func (h finishHeap) Len() int { return len(h) }
func (h finishHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h finishHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *finishHeap) Push(x interface{}) { *h = append(*h, x.(finishItem)) }
func (h *finishHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
