// Surveillance demonstrates the operational workflow the paper's
// introduction motivates: a disease surveillance system that receives new
// case reports every day and needs the density map refreshed in near real
// time.
//
// It exercises four extensions built on the paper's machinery:
//
//   - a live Stream (incremental adds, sliding-window retires),
//   - exact point Queries ("what is the risk at this clinic right now?"),
//   - hot-region extraction via thresholding, and
//   - a simulated distributed-memory run (the paper's future-work item).
//
// Run with: go run ./examples/surveillance
package main

import (
	"fmt"
	"log"

	"repro/stkde"
	"repro/synth"
)

func main() {
	domain := stkde.Domain{GX: 8000, GY: 6000, GT: 365}
	spec, err := stkde.NewSpec(domain, 100, 1, 600, 10)
	if err != nil {
		log.Fatal(err)
	}

	// A year of case reports, grouped by day.
	cases := synth.Epidemic{Clusters: 12, Waves: 2}.Generate(20000, domain, 99)
	byDay := make([][]stkde.Point, int(domain.GT))
	for _, c := range cases {
		d := int(c.T)
		byDay[d] = append(byDay[d], c)
	}

	stream, err := stkde.NewStream(spec, stkde.StreamConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Stream the first 90 days with a 60-day sliding window: each day the
	// new reports are added and reports older than the window retire.
	const window = 60
	for day := 0; day < 90; day++ {
		stream.Add(byDay[day]...)
		if old := day - window; old >= 0 {
			if err := stream.Remove(byDay[old]...); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("after 90 days: %d active cases in the %d-day window\n", stream.N(), window)

	snap, err := stream.Snapshot(nil)
	if err != nil {
		log.Fatal(err)
	}
	v, X, Y, T := snap.Max()
	fmt.Printf("current hotspot: (%.0f m, %.0f m) around day %.0f (density %.3g)\n",
		spec.CenterX(X), spec.CenterY(Y), spec.CenterT(T), v)

	// Hot-region alerting: voxels above 40% of the peak.
	hot := snap.Threshold(v * 0.4)
	fmt.Printf("alert regions at 40%% of peak: %d voxel runs\n", len(hot))

	// The epidemic curve (spatially integrated density per day).
	profile := snap.TemporalProfile()
	peakDay, peakVal := 0, 0.0
	for d, p := range profile {
		if p > peakVal {
			peakDay, peakVal = d, p
		}
	}
	fmt.Printf("epidemic curve peaks on day %d\n", peakDay)

	// Point queries: exact densities at three clinic locations, straight
	// from the raw events (no grid needed).
	var active []stkde.Point
	for day := max(0, 90-window); day < 90; day++ {
		active = append(active, byDay[day]...)
	}
	q := stkde.NewQuery(active, spec, stkde.Options{})
	clinics := []stkde.Point{
		{X: 2000, Y: 1500, T: 89},
		{X: 4000, Y: 3000, T: 89},
		{X: 7500, Y: 5500, T: 89},
	}
	for i, c := range clinics {
		fmt.Printf("clinic %d risk today: %.3g\n", i+1, q.At(c.X, c.Y, c.T))
	}

	// Finally, the same full-year estimate on a simulated 4-node
	// distributed-memory cluster.
	res, err := stkde.EstimateDistributed(cases, spec, stkde.DistOptions{Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	st := res.Stats
	fmt.Printf("distributed run: %d ranks, %d messages, %.1f MB scattered, %.1f MB gathered, imbalance %.2f\n",
		st.Ranks, st.Messages, float64(st.ScatterBytes)/1e6, float64(st.GatherBytes)/1e6, st.Imbalance)
}
