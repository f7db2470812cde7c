//go:build !amd64

package nn

// useAVX2 is false off amd64: the Go loops in tensor.go are the only
// spelling of the kernel there. A variable rather than a constant only
// so the tests that flip it on amd64 compile everywhere.
var useAVX2 = false

func gatherNonZeroAVX2(ks *[gatherBlock]int, blk []float64, base int) int {
	panic("nn: no AVX2 kernel on this architecture")
}

func axpyRowsAVX2(dst, a, b []float64, ks []int, bias []float64, relu bool) {
	panic("nn: no AVX2 kernel on this architecture")
}

func addOuterRowsAVX2(dst, a, d []float64, ks []int) {
	panic("nn: no AVX2 kernel on this architecture")
}

func adamStepAVX2(val, g, m, v []float64, k *adamConsts) {
	panic("nn: no AVX2 kernel on this architecture")
}
