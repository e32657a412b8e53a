package data

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/grid"
)

// Instance describes one of the 21 problem instances of Table 2 at its
// full, paper-reported size. Grid dimensions and bandwidths are in voxels;
// following the paper's convention we model the domain with unit
// resolutions, so domain units coincide with voxels.
type Instance struct {
	Name    string  // e.g. "Dengue_Hr-VHb"
	Dataset string  // Dengue, PollenUS, Flu, eBird
	N       int     // number of events
	Gx      int     // grid width in voxels
	Gy      int     // grid height in voxels
	Gt      int     // grid depth (time) in voxels
	SizeMB  float64 // paper-reported grid size (float32 voxels, in MiB)
	Hs      int     // spatial bandwidth in voxels
	Ht      int     // temporal bandwidth in voxels
	Gen     Generator
	Seed    uint64
}

// Catalog returns the full Table 2 instance catalog in paper order.
func Catalog() []Instance {
	den := Epidemic{}
	pol := SocialMedia{}
	flu := SparseGlobal{}
	ebd := Hotspot{}
	return []Instance{
		{"Dengue_Lr-Lb", "Dengue", 11056, 148, 194, 728, 79, 3, 1, den, 101},
		{"Dengue_Lr-Hb", "Dengue", 11056, 148, 194, 728, 79, 25, 1, den, 101},
		{"Dengue_Hr-Lb", "Dengue", 11056, 294, 386, 728, 315, 2, 1, den, 101},
		{"Dengue_Hr-Hb", "Dengue", 11056, 294, 386, 728, 315, 50, 1, den, 101},
		{"Dengue_Hr-VHb", "Dengue", 11056, 294, 386, 728, 315, 50, 14, den, 101},
		{"PollenUS_Lr-Lb", "PollenUS", 588189, 131, 61, 84, 2, 2, 3, pol, 202},
		{"PollenUS_Hr-Lb", "PollenUS", 588189, 651, 301, 84, 62, 10, 3, pol, 202},
		{"PollenUS_Hr-Mb", "PollenUS", 588189, 651, 301, 84, 62, 25, 7, pol, 202},
		{"PollenUS_Hr-Hb", "PollenUS", 588189, 651, 301, 84, 62, 50, 14, pol, 202},
		{"PollenUS_VHr-Lb", "PollenUS", 588189, 6501, 3001, 84, 6252, 100, 3, pol, 202},
		{"PollenUS_VHr-VLb", "PollenUS", 588189, 6501, 3001, 84, 6252, 50, 3, pol, 202},
		{"Flu_Lr-Lb", "Flu", 31478, 117, 308, 851, 117, 1, 1, flu, 303},
		{"Flu_Lr-Hb", "Flu", 31478, 117, 308, 851, 117, 2, 3, flu, 303},
		{"Flu_Mr-Lb", "Flu", 31478, 233, 615, 1985, 1085, 2, 3, flu, 303},
		{"Flu_Mr-Hb", "Flu", 31478, 233, 615, 1985, 1085, 4, 7, flu, 303},
		{"Flu_Hr-Lb", "Flu", 31478, 581, 1536, 5951, 20260, 5, 7, flu, 303},
		{"Flu_Hr-Hb", "Flu", 31478, 581, 1536, 5951, 20260, 10, 21, flu, 303},
		{"eBird_Lr-Lb", "eBird", 291990435, 357, 721, 2435, 2391, 2, 3, ebd, 404},
		{"eBird_Lr-Hb", "eBird", 291990435, 357, 721, 2435, 2391, 6, 5, ebd, 404},
		{"eBird_Hr-Lb", "eBird", 291990435, 1781, 3601, 2435, 59570, 10, 3, ebd, 404},
		{"eBird_Hr-Hb", "eBird", 291990435, 1781, 3601, 2435, 59570, 30, 5, ebd, 404},
	}
}

// InstanceByName returns the catalog instance with the given name
// (case-insensitive).
func InstanceByName(name string) (Instance, bool) {
	for _, inst := range Catalog() {
		if strings.EqualFold(inst.Name, name) {
			return inst, true
		}
	}
	return Instance{}, false
}

// MaxPointsPerScale bounds the number of generated points at ~4M per unit
// scale. It only binds for eBird's 292M observations, which would neither
// fit the experiment time budget nor change the algorithmic regime: what
// matters is points-per-voxel density, which stays high.
const MaxPointsPerScale = 4_000_000

// Scaled is a runnable instantiation of a catalog instance at a linear
// scale factor in (0, 1]: grid dimensions and bandwidths shrink
// proportionally (preserving the compute/initialization balance), and the
// point count is reduced quadratically with scale (and capped) to keep
// runtimes proportional.
type Scaled struct {
	Instance Instance
	Scale    float64
	NPoints  int
	Spec     grid.Spec
}

// Scaled derives a runnable instance at the given linear scale.
func (inst Instance) Scaled(scale float64) (Scaled, error) {
	if scale <= 0 || scale > 1 {
		return Scaled{}, fmt.Errorf("data: scale must be in (0, 1], got %g", scale)
	}
	dim := func(g int) int {
		v := int(math.Round(float64(g) * scale))
		if v < 4 {
			v = 4
		}
		if v > g {
			v = g
		}
		return v
	}
	bw := func(h int) int {
		v := int(math.Round(float64(h) * scale))
		if v < 1 {
			v = 1
		}
		return v
	}
	gx, gy, gt := dim(inst.Gx), dim(inst.Gy), dim(inst.Gt)
	hs, ht := bw(inst.Hs), bw(inst.Ht)
	n := int(float64(inst.N) * scale * scale)
	if n < 1000 {
		n = 1000
	}
	if n > inst.N {
		n = inst.N
	}
	if limit := int(MaxPointsPerScale * scale); n > limit {
		n = limit
	}
	spec, err := grid.NewSpec(grid.Domain{
		GX: float64(gx), GY: float64(gy), GT: float64(gt),
	}, 1, 1, float64(hs), float64(ht))
	if err != nil {
		return Scaled{}, err
	}
	return Scaled{Instance: inst, Scale: scale, NPoints: n, Spec: spec}, nil
}

// Points generates the instance's synthetic event set (deterministic for a
// given instance and scale).
func (s Scaled) Points() []grid.Point {
	return s.Instance.Gen.Generate(s.NPoints, s.Spec.Domain, s.Instance.Seed)
}
