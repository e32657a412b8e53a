// Package simd provides the vectorized inner kernels of the span engine:
// hand-written AVX2 assembly for the three PB-SYM hot loops (the packed
// disk and bar invariant fills and the per-voxel multiply-add rows) plus
// the grid reductions, with pure-Go fallbacks that are bitwise identical.
//
// Contract. Every kernel performs, per element, exactly the float
// operations of the scalar span engine in the same order and associativity
// — 4-wide VMULPD/VADDPD lanes, never FMA — so a vectorized run produces
// bit-for-bit the grid a scalar run produces, and both stay bitwise equal
// to the dense test oracle of repro/internal/core. Partial vectors at span
// ends are handled with VMASKMOVPD masked loads and stores: the assembly
// never reads or writes a single byte past the slice it was handed.
//
// Dispatch. The instruction set is chosen once at init: on amd64 a
// hand-rolled CPUID/XGETBV probe checks OS-enabled YMM state plus the AVX2
// feature bit, and Active reports the result ("avx2" or "scalar"). The
// `purego` build tag — and any non-amd64 GOARCH — compiles the package
// without any assembly, as the escape hatch when the probe itself is
// unwanted (debugging, exotic hypervisors, coverage-instrumented builds).
package simd

// Active returns the instruction set the kernels dispatch to: "avx2" when
// the AVX2 assembly is compiled in and the CPU+OS support it, "scalar"
// otherwise (non-amd64, the purego build tag, or an amd64 host without
// AVX2). The choice is made once at package init and never changes.
func Active() string { return activeISA }

// Enabled reports whether the vectorized kernels are in use. The span
// engine consults it at each span, beside its span-length cutoffs; the
// per-call dispatch below branches on the same flag.
func Enabled() bool { return vectorEnabled }

// Add computes dst[i] += src[i] over len(dst) elements — the replica-grid
// and replication-buffer reductions. src must be at least as long as dst.
func Add(dst, src []float64) {
	if len(dst) == 0 {
		return
	}
	add(dst, src[:len(dst)])
}

// MulAddRows applies the PB-SYM multiply-add block for one disk span: for
// every row iy in [0, len(ks)), it updates the contiguous run
//
//	data[iy*stride : iy*stride+len(bar)] += ks[iy] * bar
//
// in one call, keeping the whole span's row walk inside the kernel. This
// is the shape the committed instances actually present — wide disks times
// short bars — where a per-row call could not amortize its own overhead:
// the bar fits in a register once and every short row becomes a single
// masked multiply-add. stride must be at least len(bar), and data must
// cover the final row.
func MulAddRows(data []float64, stride int, ks, bar []float64) {
	rows, bn := len(ks), len(bar)
	if rows == 0 || bn == 0 {
		return
	}
	if stride < bn {
		panic("simd: MulAddRows stride shorter than row length")
	}
	if need := (rows-1)*stride + bn; need > len(data) {
		panic("simd: MulAddRows data shorter than its rows")
	}
	mulAddRows(data, stride, ks, bar)
}

// FillDiskPoly evaluates the packed polynomial spatial invariant of one X
// column of the disk: for each i,
//
//	r2 := uu + w2[i]
//	dst[i] = 0                     if r2 >= 1
//	dst[i] = kc * (1-r2)^deg * norm otherwise
//
// with the product left-associated exactly like kernel.PolySpatial's Eval
// contract (kc*d*d*...*d, then *norm), covering the uniform (deg 0),
// Epanechnikov (1), quartic (2) and triweight (3) kernels. w2 must be at
// least as long as dst. Degrees outside [0, 3] panic: the engine's
// specialization hook never selects them.
func FillDiskPoly(dst, w2 []float64, uu, kc, norm float64, deg int) {
	if deg < 0 || deg > 3 {
		panic("simd: FillDiskPoly degree out of range")
	}
	if len(dst) == 0 {
		return
	}
	fillDiskPoly(dst, w2[:len(dst)], uu, kc, norm, deg)
}

// FillBarPoly evaluates the packed polynomial temporal invariant: for each
// normalized offset w[i],
//
//	dst[i] = 0                    if w[i]*w[i] >= 1
//	dst[i] = kc * (1-w[i]^2)^deg  otherwise
//
// For finite w the support predicate w² >= 1 selects exactly the same
// elements as the scalar engine's w <= -1 || w >= 1 (squaring a double
// cannot cross 1.0 in either direction), so the packed bar is bitwise
// identical. w must be at least as long as dst; degrees outside [0, 3]
// panic.
func FillBarPoly(dst, w []float64, kc float64, deg int) {
	if deg < 0 || deg > 3 {
		panic("simd: FillBarPoly degree out of range")
	}
	if len(dst) == 0 {
		return
	}
	fillBarPoly(dst, w[:len(dst)], kc, deg)
}

// ---------------------------------------------------------------------------
// Pure-Go reference kernels. These are the `purego` / non-amd64 execution
// path and the oracle the fuzz targets diff the assembly against. Each loop
// states the per-element operation sequence the assembly must reproduce.
// ---------------------------------------------------------------------------

func addGeneric(dst, src []float64) {
	for i, s := range src {
		dst[i] += s
	}
}

func mulAddRowsGeneric(data []float64, stride int, ks, bar []float64) {
	rb := 0
	for _, k := range ks {
		row := data[rb : rb+len(bar)]
		for j, b := range bar {
			row[j] += k * b
		}
		rb += stride
	}
}

func fillDiskPolyGeneric(dst, w2 []float64, uu, kc, norm float64, deg int) {
	switch deg {
	case 0:
		kn := kc * norm
		for i, w := range w2 {
			if r2 := uu + w; r2 >= 1 {
				dst[i] = 0
			} else {
				dst[i] = kn
			}
		}
	case 1:
		for i, w := range w2 {
			if r2 := uu + w; r2 >= 1 {
				dst[i] = 0
			} else {
				dst[i] = kc * (1 - r2) * norm
			}
		}
	case 2:
		for i, w := range w2 {
			if r2 := uu + w; r2 >= 1 {
				dst[i] = 0
			} else {
				d := 1 - r2
				dst[i] = kc * d * d * norm
			}
		}
	default:
		for i, w := range w2 {
			if r2 := uu + w; r2 >= 1 {
				dst[i] = 0
			} else {
				d := 1 - r2
				dst[i] = kc * d * d * d * norm
			}
		}
	}
}

func fillBarPolyGeneric(dst, w []float64, kc float64, deg int) {
	switch deg {
	case 0:
		for i, v := range w {
			if v*v >= 1 {
				dst[i] = 0
			} else {
				dst[i] = kc
			}
		}
	case 1:
		for i, v := range w {
			if ww := v * v; ww >= 1 {
				dst[i] = 0
			} else {
				dst[i] = kc * (1 - ww)
			}
		}
	case 2:
		for i, v := range w {
			if ww := v * v; ww >= 1 {
				dst[i] = 0
			} else {
				d := 1 - ww
				dst[i] = kc * d * d
			}
		}
	default:
		for i, v := range w {
			if ww := v * v; ww >= 1 {
				dst[i] = 0
			} else {
				d := 1 - ww
				dst[i] = kc * d * d * d
			}
		}
	}
}
