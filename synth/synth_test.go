package synth_test

import (
	"fmt"
	"log"
	"reflect"
	"testing"

	"repro/stkde"
	"repro/synth"
)

// ExampleCatalog shows how to obtain a runnable version of a Table 2
// benchmark instance.
func ExampleCatalog() {
	inst, ok := synth.InstanceByName("Dengue_Hr-VHb")
	if !ok {
		log.Fatal("instance missing")
	}
	s, err := inst.Scaled(0.25)
	if err != nil {
		log.Fatal(err)
	}
	pts := s.Points()
	fmt.Printf("%s: %d points on a %dx%dx%d grid, Hs=%d Ht=%d\n",
		inst.Name, len(pts), s.Spec.Gx, s.Spec.Gy, s.Spec.Gt, s.Spec.Hs, s.Spec.Ht)
	// Output:
	// Dengue_Hr-VHb: 1000 points on a 74x97x182 grid, Hs=13 Ht=4
}

func TestCatalogComplete(t *testing.T) {
	if len(synth.Catalog()) != 21 {
		t.Fatalf("catalog must list the paper's 21 instances, got %d", len(synth.Catalog()))
	}
}

func TestGeneratorsUsableThroughFacade(t *testing.T) {
	d := stkde.Domain{GX: 100, GY: 100, GT: 50}
	gens := []synth.Generator{
		synth.Epidemic{}, synth.SocialMedia{}, synth.SparseGlobal{},
		synth.Hotspot{}, synth.Uniform{},
	}
	for _, g := range gens {
		pts := g.Generate(100, d, 1)
		if len(pts) != 100 {
			t.Errorf("%s generated %d points", g.Name(), len(pts))
		}
		if got := synth.GeneratorByName(g.Name()); reflect.TypeOf(got) != reflect.TypeOf(g) {
			t.Errorf("GeneratorByName(%q) = %T, want %T", g.Name(), got, g)
		}
	}
}

func TestRNGDeterministicFacade(t *testing.T) {
	d := stkde.Domain{GX: 100, GY: 100, GT: 50}
	for _, name := range []string{"epidemic", "socialmedia", "sparseglobal", "hotspot", "uniform"} {
		g := synth.GeneratorByName(name)
		a, b := g.Generate(100, d, 5), g.Generate(100, d, 5)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: point %d differs between two runs of seed 5", g.Name(), i)
			}
		}
	}
}

// TestEndToEnd runs a catalog instance through the estimator, the workflow
// a benchmark user follows.
func TestEndToEnd(t *testing.T) {
	inst, _ := synth.InstanceByName("PollenUS_Lr-Lb")
	s, err := inst.Scaled(0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stkde.Estimate(stkde.AlgPBSYMPDSCHED, s.Points(), s.Spec, stkde.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grid.Sum() <= 0 {
		t.Error("no density computed")
	}
}
