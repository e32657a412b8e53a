package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stencil"
)

// Replicated reports whether any subdomain is replicated.
func (r Replication) Replicated() bool {
	for _, f := range r.Factor {
		if f > 1 {
			return true
		}
	}
	return false
}

// MaxFactor returns the largest replication factor.
func (r Replication) MaxFactor() int {
	m := 1
	for _, f := range r.Factor {
		if f > m {
			m = f
		}
	}
	return m
}

func randomCase(a, b, c uint8, seed int64) (stencil.DAG, []float64) {
	l := stencil.Lattice{A: int(a%4) + 1, B: int(b%4) + 1, C: int(c%4) + 1}
	w := make([]float64, l.N())
	rng := seed
	for i := range w {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := (rng >> 40) % 50
		if v < 0 {
			v = -v
		}
		w[i] = float64(v + 1)
	}
	col := stencil.Greedy(l, stencil.ByLoadDesc(w))
	return stencil.Orient(l, col), w
}

// TestSimulateBounds: a valid schedule satisfies
// max(T1/P, Tinf) <= makespan <= Graham bound.
func TestSimulateBounds(t *testing.T) {
	check := func(a, b, c uint8, seed int64, pw uint8) bool {
		d, w := randomCase(a, b, c, seed)
		p := int(pw%16) + 1
		t1 := stencil.TotalWork(w)
		tinf, _ := stencil.CriticalPath(d, w)
		got := Simulate(d, w, p)
		lower := math.Max(t1/float64(p), tinf)
		upper := stencil.GrahamBound(t1, tinf, p)
		return got >= lower-1e-9 && got <= upper+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateSingleMachineIsTotalWork(t *testing.T) {
	d, w := randomCase(3, 3, 3, 42)
	got := Simulate(d, w, 1)
	if math.Abs(got-stencil.TotalWork(w)) > 1e-9 {
		t.Errorf("P=1 makespan %g != total work %g", got, stencil.TotalWork(w))
	}
}

func TestSimulateInfiniteMachinesIsCriticalPath(t *testing.T) {
	d, w := randomCase(2, 3, 2, 7)
	cp, _ := stencil.CriticalPath(d, w)
	got := Simulate(d, w, 10000)
	if math.Abs(got-cp) > 1e-9 {
		t.Errorf("P=inf makespan %g != critical path %g", got, cp)
	}
}

func TestSimulateEmpty(t *testing.T) {
	if Simulate(stencil.DAG{}, nil, 4) != 0 {
		t.Error("empty DAG should have zero makespan")
	}
}

// replicatedCP returns the critical path of d, and its chain, under the
// effective weights of rep's factors.
func replicatedCP(d stencil.DAG, w []float64, rep Replication, overhead func(v, k int) float64) (float64, []int) {
	eff := make([]float64, d.N)
	for v := range eff {
		eff[v] = effective(w[v], rep.Factor[v], v, overhead)
	}
	return stencil.CriticalPath(d, eff)
}

// TestPlanReplicationShortensCP: with zero overhead, the planner must
// drive the critical path to the threshold (or saturate factors at P).
func TestPlanReplicationShortensCP(t *testing.T) {
	check := func(a, b, c uint8, seed int64, pw uint8) bool {
		d, w := randomCase(a, b, c, seed)
		p := int(pw%15) + 2
		zero := func(v, k int) float64 { return 0 }
		rep := PlanReplication(d, w, p, zero)
		t1 := stencil.TotalWork(w)
		threshold := t1 / (2 * float64(p))
		cp, chain := replicatedCP(d, w, rep, zero)
		if cp <= threshold+1e-9 {
			return true
		}
		// Otherwise every task on the final critical path must be
		// saturated at factor P.
		for _, v := range chain {
			if rep.Factor[v] < p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanReplicationRespectsCapAndP1(t *testing.T) {
	d, w := randomCase(3, 3, 3, 9)
	rep := PlanReplication(d, w, 8, func(v, k int) float64 { return 0 })
	for v, f := range rep.Factor {
		if f < 1 || f > 8 {
			t.Fatalf("factor[%d] = %d outside [1,8]", v, f)
		}
	}
	rep1 := PlanReplication(d, w, 1, nil)
	if rep1.Replicated() {
		t.Error("P=1 must not replicate")
	}
	if rep1.MaxFactor() != 1 {
		t.Error("P=1 max factor must be 1")
	}
}

// TestPlanReplicationHugeOverheadStops: when splitting always increases the
// chain cost, the planner must not replicate at all.
func TestPlanReplicationHugeOverheadStops(t *testing.T) {
	d, w := randomCase(3, 2, 3, 11)
	rep := PlanReplication(d, w, 16, func(v, k int) float64 { return 1e12 })
	if rep.Replicated() {
		t.Error("planner replicated despite prohibitive overhead")
	}
}

// TestPlanReplicationImprovesSimulatedMakespan: on a pathological chain
// (single heavy cell), replication should reduce the simulated makespan.
func TestPlanReplicationImprovesSimulatedMakespan(t *testing.T) {
	l := stencil.Lattice{A: 4, B: 4, C: 4}
	w := make([]float64, l.N())
	for i := range w {
		w[i] = 1
	}
	w[l.ID(1, 1, 1)] = 1000 // one dominant subdomain
	col := stencil.Greedy(l, stencil.ByLoadDesc(w))
	d := stencil.Orient(l, col)
	p := 8
	before := Simulate(d, w, p)
	one := func(v, k int) float64 { return 1 }
	rep := PlanReplication(d, w, p, one)
	if !rep.Replicated() {
		t.Fatal("expected replication of the dominant subdomain")
	}
	if cp, _ := replicatedCP(d, w, rep, one); cp >= before {
		t.Errorf("effective CP %g not below un-replicated makespan %g", cp, before)
	}
	if rep.Factor[l.ID(1, 1, 1)] < 2 {
		t.Error("dominant subdomain not replicated")
	}
}

func TestReplicationAccessors(t *testing.T) {
	r := Replication{Factor: []int{1, 3, 1, 2}}
	if !r.Replicated() || r.MaxFactor() != 3 {
		t.Errorf("accessors wrong: %+v", r)
	}
	r = Replication{Factor: []int{1, 1}}
	if r.Replicated() || r.MaxFactor() != 1 {
		t.Errorf("accessors wrong: %+v", r)
	}
}
