//go:build amd64 && !purego

package simd

// Assembly kernel declarations (kernels_amd64.s). Callers guarantee
// len(src) == len(dst) (resliced by the public wrappers) and, for
// mulAddRowsAVX2, that data covers (len(ks)-1)*stride+len(bar) elements.

//go:noescape
func addAVX2(dst, src []float64)

//go:noescape
func mulAddRowsAVX2(data []float64, stride int, ks, bar []float64)

//go:noescape
func fillDiskPolyAVX2(dst, w2 []float64, uu, kc, norm float64, deg int)

//go:noescape
func fillBarPolyAVX2(dst, w []float64, kc float64, deg int)

// CPUID probe primitives (cpuid_amd64.s).

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)
