package core

import (
	"testing"

	"repro/internal/grid"
)

// BenchmarkUpdaterStream replays a time-ordered stream of the repository
// benchmark's stream-mixed shape (326x151x42 window, Hs 13, Ht 4) through
// an Updater: every event is inside the window when added, and the window
// advances one layer whenever the next event reaches past its end.
func BenchmarkUpdaterStream(b *testing.B) {
	spec, err := grid.NewSpec(grid.Domain{GX: 326, GY: 151, GT: 42}, 1, 1, 13, 4)
	if err != nil {
		b.Fatal(err)
	}
	const perLayer = 4000
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
	l := 0
	for ; l < spec.Gt; l++ {
		u.Add(layer(l)...)
	}
	b.Run("add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			u.AdvanceBy(1)
			pts := layer(l)
			l++
			b.StartTimer()
			u.Add(pts...)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perLayer, "ns/event")
	})
	b.Run("advance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u.AdvanceBy(1)
			b.StopTimer()
			u.Add(layer(l)...)
			l++
			b.StartTimer()
		}
		if st := u.Stats(); st.AdvanceReapplied != 0 {
			b.Fatalf("time-ordered stream re-applied %d events", st.AdvanceReapplied)
		}
	})
}
