// Package synth provides deterministic synthetic event generators and the
// paper's 21-instance benchmark catalog (Table 2).
//
// The original datasets (Dengue surveillance records, Gnip/Twitter pollen
// tweets, the Influenza Research Database, and eBird) cannot be
// redistributed; these generators reproduce the statistical shapes that
// drive the paper's results — spatial clustering, temporal seasonality, and
// points-per-voxel density. The closing note of the repository README on
// the datasets gives the substitution rationale.
package synth

import (
	"repro/internal/data"
)

// Generator produces a deterministic synthetic event set inside a domain.
type Generator = data.Generator

// The four dataset-shaped generators plus a uniform baseline.
type (
	// Epidemic mimics the Dengue dataset: tight urban clusters, two
	// seasonal waves.
	Epidemic = data.Epidemic
	// SocialMedia mimics the PollenUS dataset: population-center mixture
	// with a single broad season.
	SocialMedia = data.SocialMedia
	// SparseGlobal mimics the Flu dataset: few observations along flyways
	// over a huge domain and time span.
	SparseGlobal = data.SparseGlobal
	// Hotspot mimics the eBird dataset: power-law site popularity, nearly
	// uniform in time.
	Hotspot = data.Hotspot
	// Uniform scatters points uniformly (neutral baseline).
	Uniform = data.Uniform
)

// Instance is a Table 2 benchmark instance at full (paper) size.
type Instance = data.Instance

// Scaled is a runnable instantiation of an Instance at a linear scale.
type Scaled = data.Scaled

// Catalog returns the 21 Table 2 instances in paper order.
func Catalog() []Instance { return data.Catalog() }

// InstanceByName finds a catalog instance (case-insensitive).
func InstanceByName(name string) (Instance, bool) { return data.InstanceByName(name) }

// GeneratorByName resolves a generator by name ("epidemic", "socialmedia",
// "sparseglobal", "hotspot", "uniform"); nil if unknown.
func GeneratorByName(name string) Generator { return data.ByName(name) }
