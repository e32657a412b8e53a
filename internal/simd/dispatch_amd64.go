//go:build amd64 && !purego

package simd

// useAVX2 is decided once at init; the per-call dispatch below branches on
// it so a non-AVX2 amd64 host runs the same pure-Go loops as purego builds.
var useAVX2 = detectAVX2()

var (
	activeISA     = isaName()
	vectorEnabled = useAVX2
)

func isaName() string {
	if useAVX2 {
		return "avx2"
	}
	return "scalar"
}

// detectAVX2 probes CPUID for AVX2 the way the runtime's internal/cpu does:
// the feature bit alone is not enough — the OS must have enabled XMM+YMM
// state saving (OSXSAVE + XCR0), or executing a VEX-encoded instruction
// faults even though CPUID advertises it.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	const ymmState = 0x6 // XCR0 bits 1 (SSE) and 2 (AVX)
	if xlo, _ := xgetbv(); xlo&ymmState != ymmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

func add(dst, src []float64) {
	if useAVX2 {
		addAVX2(dst, src)
		return
	}
	addGeneric(dst, src)
}

func mulAddRows(data []float64, stride int, ks, bar []float64) {
	if useAVX2 {
		mulAddRowsAVX2(data, stride, ks, bar)
		return
	}
	mulAddRowsGeneric(data, stride, ks, bar)
}

func fillDiskPoly(dst, w2 []float64, uu, kc, norm float64, deg int) {
	if useAVX2 {
		fillDiskPolyAVX2(dst, w2, uu, kc, norm, deg)
		return
	}
	fillDiskPolyGeneric(dst, w2, uu, kc, norm, deg)
}

func fillBarPoly(dst, w []float64, kc float64, deg int) {
	if useAVX2 {
		fillBarPolyAVX2(dst, w, kc, deg)
		return
	}
	fillBarPolyGeneric(dst, w, kc, deg)
}
