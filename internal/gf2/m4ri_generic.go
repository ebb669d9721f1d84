//go:build !amd64 || purego

package gf2

// haveAVX2 is false off amd64 and under the purego tag, so clearBlock
// always runs clearBlockGo.
const haveAVX2 = false

// clearBlockAVX2 stands in for the amd64 kernel so the equivalence tests
// compile everywhere; clearBlock never calls it here.
func clearBlockAVX2(rows []uint64, stride, tw int, shift uint, blockMask uint64, tab []uint64) {
	clearBlockGo(rows, stride, tw, shift, blockMask, tab)
}
