package nn

// useAVX2 picks the spelling of the matmul kernel: the assembly in
// kernels_amd64.s when the CPU and the OS both support AVX2, the Go
// loops in tensor.go otherwise. It is decided once, here, from the
// hardware alone — no flag, environment variable or build tag reaches
// it, because the two spellings produce the same bits and there is
// nothing to choose between. Only tests write it, to run the reference
// comparisons on both.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether AVX2 instructions may be executed: the CPU
// implements them (leaf 7 EBX bit 5) and AVX (leaf 1 ECX bit 28), and
// the OS saves the YMM state across context switches (OSXSAVE, leaf 1
// ECX bit 27, with XCR0 bits 1 and 2 set).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// gatherNonZeroAVX2 is gatherNonZero (tensor.go) in AVX2. The caller
// has checked len(blk) <= gatherBlock.
//
//go:noescape
func gatherNonZeroAVX2(ks *[gatherBlock]int, blk []float64, base int) int

// gatherLUT[m] lists, ascending, the lanes whose bit is set in the
// four-bit mask m and, in element 4, how many there are: what
// gatherNonZeroAVX2 adds to its running position and to its count for a
// group of four values whose non-zero lanes are m. Read from the
// assembly by name.
var gatherLUT = func() (t [16][8]int64) {
	for m := range t {
		n := 0
		for lane := 0; lane < 4; lane++ {
			if m>>lane&1 != 0 {
				t[m][n] = int64(lane)
				n++
			}
		}
		t[m][4] = int64(n)
	}
	return t
}()

// axpyRowsAVX2 is addRows (tensor.go) in AVX2. The caller has checked
// that every k in ks indexes a and that b holds row k's len(dst)
// columns, and that bias is empty or len(dst) long.
//
//go:noescape
func axpyRowsAVX2(dst, a, b []float64, ks []int, bias []float64, relu bool)

// addOuterRowsAVX2 is addOuterRows (tensor.go) in AVX2. The caller has
// checked that every k in ks indexes a and that dst holds row k's
// len(d) columns.
//
//go:noescape
func addOuterRowsAVX2(dst, a, d []float64, ks []int)

// adamStepAVX2 is Adam.Step's per-element update in AVX2, over
// len(val) &^ 3 elements. The caller has checked that g, m and v are at
// least as long as val.
//
//go:noescape
func adamStepAVX2(val, g, m, v []float64, k *adamConsts)
