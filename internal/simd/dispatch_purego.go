//go:build !amd64 || purego

package simd

// No assembly on this configuration: every kernel is its pure-Go reference
// loop. activeISA/vectorEnabled are consts so the dispatch branches in the
// amd64 file's counterparts are simply absent from the build.
const (
	activeISA     = "scalar"
	vectorEnabled = false
)

func add(dst, src []float64) { addGeneric(dst, src) }

func mulAddRows(data []float64, stride int, ks, bar []float64) {
	mulAddRowsGeneric(data, stride, ks, bar)
}

func fillDiskPoly(dst, w2 []float64, uu, kc, norm float64, deg int) {
	fillDiskPolyGeneric(dst, w2, uu, kc, norm, deg)
}

func fillBarPoly(dst, w []float64, kc float64, deg int) {
	fillBarPolyGeneric(dst, w, kc, deg)
}
