package data

import (
	"strings"
	"testing"
)

func TestCatalogMatchesTable2(t *testing.T) {
	cat := Catalog()
	if len(cat) != 21 {
		t.Fatalf("catalog has %d instances, Table 2 lists 21", len(cat))
	}
	seen := map[string]bool{}
	counts := map[string]int{}
	for _, inst := range cat {
		if seen[inst.Name] {
			t.Errorf("duplicate instance %s", inst.Name)
		}
		seen[inst.Name] = true
		counts[inst.Dataset]++
		if inst.Gen == nil {
			t.Errorf("%s has no generator", inst.Name)
		}
		if inst.N <= 0 || inst.Gx <= 0 || inst.Gy <= 0 || inst.Gt <= 0 || inst.Hs <= 0 || inst.Ht <= 0 {
			t.Errorf("%s has invalid parameters: %+v", inst.Name, inst)
		}
		if !strings.HasPrefix(inst.Name, inst.Dataset) {
			t.Errorf("%s name does not start with dataset %s", inst.Name, inst.Dataset)
		}
		// The paper's size column is the voxel grid with float32 voxels in
		// MiB (e.g. Flu_Hr: 581*1536*5951*4/2^20 = 20259 ~ "20260MB").
		// Verify our grid dimensions reproduce the table's sizes.
		mib := float64(inst.Gx) * float64(inst.Gy) * float64(inst.Gt) * 4 / (1 << 20)
		if mib < inst.SizeMB*0.98-1 || mib > inst.SizeMB*1.02+1 {
			t.Errorf("%s: computed %.0f MiB vs table %.0f MB", inst.Name, mib, inst.SizeMB)
		}
	}
	want := map[string]int{"Dengue": 5, "PollenUS": 6, "Flu": 6, "eBird": 4}
	for ds, n := range want {
		if counts[ds] != n {
			t.Errorf("%s has %d instances, want %d", ds, counts[ds], n)
		}
	}
}

func TestInstanceByName(t *testing.T) {
	inst, ok := InstanceByName("dengue_hr-vhb")
	if !ok || inst.Name != "Dengue_Hr-VHb" {
		t.Fatalf("case-insensitive lookup failed: %+v ok=%v", inst, ok)
	}
	if inst.Hs != 50 || inst.Ht != 14 {
		t.Errorf("Dengue_Hr-VHb bandwidths = %d,%d, want 50,14", inst.Hs, inst.Ht)
	}
	if _, ok := InstanceByName("nope"); ok {
		t.Error("unknown instance should not resolve")
	}
}

func TestScaledInstances(t *testing.T) {
	inst, _ := InstanceByName("PollenUS_Hr-Mb")
	for _, scale := range []float64{0.05, 0.25, 1.0} {
		s, err := inst.Scaled(scale)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		if s.Spec.Gx < 4 || s.Spec.Gy < 4 || s.Spec.Gt < 4 {
			t.Errorf("scale %g: grid too small %dx%dx%d", scale, s.Spec.Gx, s.Spec.Gy, s.Spec.Gt)
		}
		if s.Spec.Hs < 1 || s.Spec.Ht < 1 {
			t.Errorf("scale %g: zero bandwidth", scale)
		}
		if s.NPoints <= 0 || s.NPoints > inst.N {
			t.Errorf("scale %g: point count %d", scale, s.NPoints)
		}
		pts := s.Points()
		if len(pts) != s.NPoints {
			t.Fatalf("generated %d points, want %d", len(pts), s.NPoints)
		}
		for _, p := range pts[:min(200, len(pts))] {
			if !s.Spec.Domain.Contains(p) {
				t.Fatalf("point %+v outside scaled domain", p)
			}
		}
	}
	// Full scale recovers the table dimensions.
	s, err := inst.Scaled(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Spec.Gx != inst.Gx || s.Spec.Gy != inst.Gy || s.Spec.Gt != inst.Gt {
		t.Errorf("scale 1 dims %dx%dx%d != table %dx%dx%d",
			s.Spec.Gx, s.Spec.Gy, s.Spec.Gt, inst.Gx, inst.Gy, inst.Gt)
	}
	if s.Spec.Hs != inst.Hs || s.Spec.Ht != inst.Ht {
		t.Errorf("scale 1 bandwidths differ")
	}

	if _, err := inst.Scaled(0); err == nil {
		t.Error("scale 0 must be rejected")
	}
	if _, err := inst.Scaled(1.5); err == nil {
		t.Error("scale > 1 must be rejected")
	}
}

func TestScaledPointCap(t *testing.T) {
	inst, _ := InstanceByName("eBird_Lr-Lb")
	s, err := inst.Scaled(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s.NPoints > int(MaxPointsPerScale*0.1)+1 {
		t.Errorf("eBird at scale 0.1 generates %d points, cap is %d",
			s.NPoints, int(MaxPointsPerScale*0.1))
	}
}
