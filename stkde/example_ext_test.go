package stkde_test

import (
	"fmt"
	"log"

	"repro/stkde"
	"repro/synth"
)

// ExampleNewStream shows streaming estimation with retraction: a sliding
// window over daily event batches.
func ExampleNewStream() {
	domain := stkde.Domain{GX: 100, GY: 100, GT: 30}
	spec, err := stkde.NewSpec(domain, 2, 1, 10, 3)
	if err != nil {
		log.Fatal(err)
	}
	s, err := stkde.NewStream(spec, stkde.StreamConfig{})
	if err != nil {
		log.Fatal(err)
	}
	day1 := synth.Epidemic{}.Generate(500, domain, 1)
	day2 := synth.Epidemic{}.Generate(500, domain, 2)
	s.Add(day1...)
	s.Add(day2...)
	if err := s.Remove(day1...); err != nil { // day 1 falls out of the window
		log.Fatal(err)
	}
	fmt.Println("events in window:", s.N())
	snap, err := s.Snapshot(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mass: %.2f\n", snap.Sum()*spec.SRes*spec.SRes*spec.TRes)
	// Output:
	// events in window: 500
	// mass: 0.95
}

// ExampleNewQuery evaluates the density at a continuous location without
// building a grid.
func ExampleNewQuery() {
	domain := stkde.Domain{GX: 100, GY: 100, GT: 50}
	spec, err := stkde.NewSpec(domain, 1, 1, 8, 4)
	if err != nil {
		log.Fatal(err)
	}
	events := []stkde.Point{{X: 50, Y: 50, T: 25}, {X: 52, Y: 49, T: 26}}
	q := stkde.NewQuery(events, spec, stkde.Options{})
	atCluster := q.At(51, 50, 25.5)
	farAway := q.At(10, 10, 5)
	fmt.Println("cluster denser than empty space:", atCluster > farAway)
	fmt.Println("empty space density:", farAway)
	// Output:
	// cluster denser than empty space: true
	// empty space density: 0
}

// ExampleEstimateDistributed runs the simulated distributed-memory
// estimator and reports its communication profile.
func ExampleEstimateDistributed() {
	domain := stkde.Domain{GX: 60, GY: 60, GT: 48}
	spec, err := stkde.NewSpec(domain, 1, 1, 4, 3)
	if err != nil {
		log.Fatal(err)
	}
	events := synth.Uniform{}.Generate(2000, domain, 7)
	res, err := stkde.EstimateDistributed(events, spec, stkde.DistOptions{Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ranks:", res.Stats.Ranks)
	fmt.Println("messages:", res.Stats.Messages)
	fmt.Println("replicated points > 0:", res.Stats.ReplicatedPts > 0)
	fmt.Printf("mass: %.2f\n", res.Grid.Sum()*spec.SRes*spec.SRes*spec.TRes)
	// Output:
	// ranks: 4
	// messages: 8
	// replicated points > 0: true
	// mass: 0.93
}
