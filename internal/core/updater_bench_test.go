package core

import (
	"fmt"
	"testing"

	"repro/internal/grid"
)

// benchWindow is the repository benchmark's stream window: 326x151x42
// voxels, Hs 13, Ht 4.
func benchWindow(b *testing.B) grid.Spec {
	spec, err := grid.NewSpec(grid.Domain{GX: 326, GY: 151, GT: 42}, 1, 1, 13, 4)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// BenchmarkUpdaterStream replays a time-ordered stream of the repository
// benchmark's stream-mixed shape (326x151x42 window, Hs 13, Ht 4) through
// an Updater: every event is inside the window when added, in batches of
// 512 events (the size of the benchmark's POSTs), and the window advances
// one layer whenever the next layer's events reach past its end.
func BenchmarkUpdaterStream(b *testing.B) {
	spec := benchWindow(b)
	const batch, perLayer = 512, 8 * 512
	rng := lcg(9)
	u, err := NewUpdater(spec, UpdaterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer u.Release()
	layer := func(l int) []grid.Point {
		pts := make([]grid.Point, perLayer)
		for i := range pts {
			pts[i] = grid.Point{
				X: 13 + rng.float()*(spec.Domain.GX-26),
				Y: 13 + rng.float()*(spec.Domain.GY-26),
				T: float64(l) + float64(i)/perLayer,
			}
		}
		return pts
	}
	add := func(pts []grid.Point) {
		for i := 0; i < len(pts); i += batch {
			u.Add(pts[i : i+batch]...)
		}
	}
	l := 0
	for ; l < spec.Gt; l++ {
		add(layer(l))
	}
	b.Run("add", func(b *testing.B) {
		before := u.Stats()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			u.AdvanceBy(1)
			pts := layer(l)
			l++
			b.StartTimer()
			add(pts)
		}
		after := u.Stats()
		events := float64(b.N) * perLayer
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
		b.ReportMetric(float64(after.StripApplies-before.StripApplies)/events, "strip_applies/event")
	})
	b.Run("advance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u.AdvanceBy(1)
			b.StopTimer()
			add(layer(l))
			l++
			b.StartTimer()
		}
		if st := u.Stats(); st.AdvanceReapplied != 0 {
			b.Fatalf("time-ordered stream re-applied %d events", st.AdvanceReapplied)
		}
	})
}

// BenchmarkUpdaterStrips measures Add on the benchmark window by batch size
// at one and two strips: the measurement behind stripMinEvents. Below the
// cutoff both rows run the same inline strip.
func BenchmarkUpdaterStrips(b *testing.B) {
	spec := benchWindow(b)
	rng := lcg(3)
	pool := make([]grid.Point, 1<<12)
	for i := range pool {
		pool[i] = grid.Point{
			X: 13 + rng.float()*(spec.Domain.GX-26),
			Y: 13 + rng.float()*(spec.Domain.GY-26),
			T: rng.float() * spec.Domain.GT,
		}
	}
	for _, n := range []int{1, 2, 3, 4, 8, 16, 64} {
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("batch%d/P%d", n, threads), func(b *testing.B) {
				u, err := NewUpdater(spec, UpdaterConfig{Options: Options{Threads: threads}})
				if err != nil {
					b.Fatal(err)
				}
				defer u.Release()
				next := 0
				for i := 0; i < b.N; i++ {
					if next+n > len(pool) {
						next = 0
					}
					u.Add(pool[next : next+n]...)
					next += n
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
			})
		}
	}
}
