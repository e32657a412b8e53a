// Package kernel provides the spatial and temporal kernel functions used by
// space-time kernel density estimation.
//
// STKDE weighs each event's contribution to a voxel by the product
// ks(dx/hs, dy/hs) * kt(dt/ht) of a 2-D spatial kernel and a 1-D temporal
// kernel evaluated on bandwidth-normalized offsets. The paper (and its
// reference implementation, Hohl et al. 2016) uses the Epanechnikov kernels
//
//	ks(u, v) = (2/pi) * (1 - u^2 - v^2)   for u^2+v^2 <= 1
//	kt(w)    = (3/4)  * (1 - w^2)         for |w| <= 1
//
// which are the defaults here. All kernels integrate to 1 over their
// support, so the estimate is a proper density, and all are compactly
// supported on the unit disk/interval, which is what enables the point-based
// algorithms to visit only the bandwidth cylinder around each event.
package kernel

import "math"

// Spatial is a 2-D kernel evaluated on bandwidth-normalized spatial offsets
// (u, v) = ((x-xi)/hs, (y-yi)/hs). Implementations must return 0 outside
// the unit disk u^2+v^2 >= 1 and must integrate to 1 over the unit disk.
type Spatial interface {
	// Eval returns the kernel weight at normalized offset (u, v).
	Eval(u, v float64) float64
	// Name identifies the kernel in output tables and is the name
	// SpatialByName finds it by; no other code spells it.
	Name() string
}

// Temporal is a 1-D kernel evaluated on the bandwidth-normalized temporal
// offset w = (t-ti)/ht. Implementations must return 0 for |w| > 1 and must
// integrate to 1 over [-1, 1].
type Temporal interface {
	// Eval returns the kernel weight at normalized offset w.
	Eval(w float64) float64
	// Name identifies the kernel in output tables and is the name
	// TemporalByName finds it by; no other code spells it.
	Name() string
}

// PolySpatial is the specialization hook for spatial kernels of the
// polynomial family
//
//	ks(u, v) = c * (1 - (u^2 + v^2))^deg   for u^2+v^2 < 1
//
// which covers the uniform (deg 0), Epanechnikov (deg 1), quartic (deg 2)
// and triweight (deg 3) kernels. Estimators that recognize the hook compile
// the kernel into a monomorphic, inlinable fill loop with no interface
// dispatch; kernels without the hook transparently use the generic path.
// User-supplied kernels may implement it to opt in, provided Eval computes
// exactly c*(1-r2)^deg as the left-associated product c*d*d*...*d with
// d = 1-r2 (so the fast path stays bitwise identical to Eval).
type PolySpatial interface {
	Spatial
	// SpatialPoly returns the coefficient c and degree deg (0 <= deg <= 3).
	SpatialPoly() (c float64, deg int)
}

// PolyTemporal is the temporal analogue of PolySpatial:
// kt(w) = c * (1 - w^2)^deg for |w| < 1.
type PolyTemporal interface {
	Temporal
	// TemporalPoly returns the coefficient c and degree deg (0 <= deg <= 3).
	TemporalPoly() (c float64, deg int)
}

// SpecializeSpatial reports the polynomial form of k when it implements the
// PolySpatial hook and its degree is supported by the fast paths.
func SpecializeSpatial(k Spatial) (c float64, deg int, ok bool) {
	if p, is := k.(PolySpatial); is {
		c, deg = p.SpatialPoly()
		if deg >= 0 && deg <= 3 {
			return c, deg, true
		}
	}
	return 0, 0, false
}

// SpecializeTemporal reports the polynomial form of k when it implements the
// PolyTemporal hook and its degree is supported by the fast paths.
func SpecializeTemporal(k Temporal) (c float64, deg int, ok bool) {
	if p, is := k.(PolyTemporal); is {
		c, deg = p.TemporalPoly()
		if deg >= 0 && deg <= 3 {
			return c, deg, true
		}
	}
	return 0, 0, false
}

// Epanechnikov2D is the paper's spatial kernel: (2/pi)(1 - u^2 - v^2) on
// the unit disk.
type Epanechnikov2D struct{}

// Eval implements Spatial.
func (Epanechnikov2D) Eval(u, v float64) float64 {
	r2 := u*u + v*v
	if r2 >= 1 {
		return 0
	}
	return (2 / math.Pi) * (1 - r2)
}

// Name implements Spatial.
func (Epanechnikov2D) Name() string { return "epanechnikov2d" }

// SpatialPoly implements the PolySpatial specialization hook.
func (Epanechnikov2D) SpatialPoly() (float64, int) { return 2 / math.Pi, 1 }

// Epanechnikov1D is the paper's temporal kernel: (3/4)(1 - w^2) on [-1, 1].
type Epanechnikov1D struct{}

// Eval implements Temporal.
func (Epanechnikov1D) Eval(w float64) float64 {
	if w <= -1 || w >= 1 {
		return 0
	}
	return 0.75 * (1 - w*w)
}

// Name implements Temporal.
func (Epanechnikov1D) Name() string { return "epanechnikov1d" }

// TemporalPoly implements the PolyTemporal specialization hook.
func (Epanechnikov1D) TemporalPoly() (float64, int) { return 0.75, 1 }

// Quartic2D is the biweight spatial kernel (3/pi)(1 - r^2)^2, common in the
// GIS literature (Nakaya & Yano use it for crime STKDE).
type Quartic2D struct{}

// Eval implements Spatial.
func (Quartic2D) Eval(u, v float64) float64 {
	r2 := u*u + v*v
	if r2 >= 1 {
		return 0
	}
	d := 1 - r2
	return (3 / math.Pi) * d * d
}

// Name implements Spatial.
func (Quartic2D) Name() string { return "quartic2d" }

// SpatialPoly implements the PolySpatial specialization hook.
func (Quartic2D) SpatialPoly() (float64, int) { return 3 / math.Pi, 2 }

// Quartic1D is the biweight temporal kernel (15/16)(1 - w^2)^2.
type Quartic1D struct{}

// Eval implements Temporal.
func (Quartic1D) Eval(w float64) float64 {
	if w <= -1 || w >= 1 {
		return 0
	}
	d := 1 - w*w
	return (15.0 / 16.0) * d * d
}

// Name implements Temporal.
func (Quartic1D) Name() string { return "quartic1d" }

// TemporalPoly implements the PolyTemporal specialization hook.
func (Quartic1D) TemporalPoly() (float64, int) { return 15.0 / 16.0, 2 }

// Triweight2D is the spatial kernel (4/pi)(1 - r^2)^3.
type Triweight2D struct{}

// Eval implements Spatial.
func (Triweight2D) Eval(u, v float64) float64 {
	r2 := u*u + v*v
	if r2 >= 1 {
		return 0
	}
	d := 1 - r2
	return (4 / math.Pi) * d * d * d
}

// Name implements Spatial.
func (Triweight2D) Name() string { return "triweight2d" }

// SpatialPoly implements the PolySpatial specialization hook.
func (Triweight2D) SpatialPoly() (float64, int) { return 4 / math.Pi, 3 }

// Triweight1D is the temporal kernel (35/32)(1 - w^2)^3.
type Triweight1D struct{}

// Eval implements Temporal.
func (Triweight1D) Eval(w float64) float64 {
	if w <= -1 || w >= 1 {
		return 0
	}
	d := 1 - w*w
	return (35.0 / 32.0) * d * d * d
}

// Name implements Temporal.
func (Triweight1D) Name() string { return "triweight1d" }

// TemporalPoly implements the PolyTemporal specialization hook.
func (Triweight1D) TemporalPoly() (float64, int) { return 35.0 / 32.0, 3 }

// Uniform2D is the flat disk kernel 1/pi.
type Uniform2D struct{}

// Eval implements Spatial.
func (Uniform2D) Eval(u, v float64) float64 {
	if u*u+v*v >= 1 {
		return 0
	}
	return 1 / math.Pi
}

// Name implements Spatial.
func (Uniform2D) Name() string { return "uniform2d" }

// SpatialPoly implements the PolySpatial specialization hook.
func (Uniform2D) SpatialPoly() (float64, int) { return 1 / math.Pi, 0 }

// Uniform1D is the flat interval kernel 1/2.
type Uniform1D struct{}

// Eval implements Temporal.
func (Uniform1D) Eval(w float64) float64 {
	if w <= -1 || w >= 1 {
		return 0
	}
	return 0.5
}

// Name implements Temporal.
func (Uniform1D) Name() string { return "uniform1d" }

// TemporalPoly implements the PolyTemporal specialization hook.
func (Uniform1D) TemporalPoly() (float64, int) { return 0.5, 0 }

// Cone2D is the linear decay kernel (3/pi)(1 - r).
type Cone2D struct{}

// Eval implements Spatial.
func (Cone2D) Eval(u, v float64) float64 {
	r2 := u*u + v*v
	if r2 >= 1 {
		return 0
	}
	return (3 / math.Pi) * (1 - math.Sqrt(r2))
}

// Name implements Spatial.
func (Cone2D) Name() string { return "cone2d" }

// Triangle1D is the linear decay kernel 1 - |w|.
type Triangle1D struct{}

// Eval implements Temporal.
func (Triangle1D) Eval(w float64) float64 {
	a := math.Abs(w)
	if a >= 1 {
		return 0
	}
	return 1 - a
}

// Name implements Temporal.
func (Triangle1D) Name() string { return "triangle1d" }

// TruncGauss2D is a Gaussian kernel truncated to the unit disk and
// renormalized so it still integrates to 1. Sigma is the standard deviation
// in normalized units; NewTruncGauss2D computes the normalization constant
// analytically.
type TruncGauss2D struct {
	sigma float64
	norm  float64
}

// NewTruncGauss2D builds a truncated Gaussian spatial kernel with the given
// standard deviation (in bandwidth-normalized units, typically 1/3).
func NewTruncGauss2D(sigma float64) TruncGauss2D {
	// Integral over the unit disk of exp(-r^2/(2 sigma^2)) is
	// 2*pi*sigma^2*(1 - exp(-1/(2 sigma^2))).
	s2 := sigma * sigma
	integral := 2 * math.Pi * s2 * (1 - math.Exp(-1/(2*s2)))
	return TruncGauss2D{sigma: sigma, norm: 1 / integral}
}

// Eval implements Spatial.
func (k TruncGauss2D) Eval(u, v float64) float64 {
	r2 := u*u + v*v
	if r2 >= 1 {
		return 0
	}
	return k.norm * math.Exp(-r2/(2*k.sigma*k.sigma))
}

// Name implements Spatial.
func (TruncGauss2D) Name() string { return "truncgauss2d" }

// TruncGauss1D is a Gaussian kernel truncated to [-1, 1] and renormalized.
type TruncGauss1D struct {
	sigma float64
	norm  float64
}

// NewTruncGauss1D builds a truncated Gaussian temporal kernel.
func NewTruncGauss1D(sigma float64) TruncGauss1D {
	// Integral over [-1,1] of exp(-w^2/(2 sigma^2)) = sigma*sqrt(2 pi)*erf(1/(sigma sqrt 2)).
	integral := sigma * math.Sqrt(2*math.Pi) * math.Erf(1/(sigma*math.Sqrt2))
	return TruncGauss1D{sigma: sigma, norm: 1 / integral}
}

// Eval implements Temporal.
func (k TruncGauss1D) Eval(w float64) float64 {
	if w <= -1 || w >= 1 {
		return 0
	}
	return k.norm * math.Exp(-w*w/(2*k.sigma*k.sigma))
}

// Name implements Temporal.
func (TruncGauss1D) Name() string { return "truncgauss1d" }

// DefaultSpatial returns the paper's spatial kernel.
func DefaultSpatial() Spatial { return Epanechnikov2D{} }

// DefaultTemporal returns the paper's temporal kernel.
func DefaultTemporal() Temporal { return Epanechnikov1D{} }

// spatialKernels are the spatial kernels SpatialByName finds. A kernel's
// name lives in its Name method alone.
var spatialKernels = []Spatial{Epanechnikov2D{}, Quartic2D{}, Triweight2D{}, Uniform2D{}, Cone2D{}, NewTruncGauss2D(1.0 / 3)}

// temporalKernels are the temporal kernels TemporalByName finds. A
// kernel's name lives in its Name method alone.
var temporalKernels = []Temporal{Epanechnikov1D{}, Quartic1D{}, Triweight1D{}, Uniform1D{}, Triangle1D{}, NewTruncGauss1D(1.0 / 3)}

// SpatialByName looks up a spatial kernel by its Name; "" is the default
// kernel. It returns nil for unknown names.
func SpatialByName(name string) Spatial {
	if name == "" {
		return DefaultSpatial()
	}
	for _, k := range spatialKernels {
		if k.Name() == name {
			return k
		}
	}
	return nil
}

// TemporalByName looks up a temporal kernel by its Name; "" is the default
// kernel. It returns nil for unknown names.
func TemporalByName(name string) Temporal {
	if name == "" {
		return DefaultTemporal()
	}
	for _, k := range temporalKernels {
		if k.Name() == name {
			return k
		}
	}
	return nil
}
