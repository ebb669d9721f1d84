//go:build !purego

package gf2

// haveAVX2 selects clearBlock's kernel once, at package init: the AVX2
// clearBlockAVX2 where the CPU and the OS support it, clearBlockGo
// otherwise.
var haveAVX2 = cpuHasAVX2()

// clearBlockAVX2 is clearBlockGo in AVX2 assembly (m4ri_amd64.s): four row
// words per VPXOR, a scalar tail, and no bounds checks, so it may only be
// called through clearBlock, which checks the slice shapes.
//
//go:noescape
func clearBlockAVX2(rows []uint64, stride, tw int, shift uint, blockMask uint64, tab []uint64)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of the XCR0 extended control register.
func xgetbv() (eax uint32)

// cpuHasAVX2 reports whether the CPU has AVX2 (CPUID leaf 7, EBX bit 5) and
// the OS saves the YMM registers on a context switch: CPUID leaf 1 reports
// AVX and OSXSAVE (ECX bits 28 and 27), and XCR0 enables the XMM and YMM
// state (bits 1 and 2).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
