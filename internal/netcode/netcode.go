// Package netcode implements the network-coding primitives of the paper's
// achievability proofs (Section III): messages as elements of the additive
// group L = max(|Sa|, |Sb|), the relay combining step wr = wa ⊕ wb, random
// binning sa(wa) ⊕ sb(wb) for the TDBC protocol, and side-information
// recovery at the terminals.
package netcode

import (
	"errors"
	"fmt"
	"math/rand"

	"bicoop/internal/gf2"
)

// Errors returned by this package.
var (
	ErrRange = errors.New("netcode: message out of range")
	ErrBins  = errors.New("netcode: bin count must be positive")
)

// Group is the additive message group Z_L used by the relay. Per the paper,
// L = max(|Sa|, |Sb|): the relay combines the two (possibly different-rate)
// messages inside the larger group, and each terminal strips its own message
// to recover the other's.
type Group struct {
	l uint64
}

// NewGroup returns the group Z_max(la, lb) for message-set sizes la and lb.
func NewGroup(la, lb uint64) (Group, error) {
	if la == 0 || lb == 0 {
		return Group{}, fmt.Errorf("netcode: empty message set (%d, %d)", la, lb)
	}
	l := la
	if lb > l {
		l = lb
	}
	return Group{l: l}, nil
}

// Order returns |L|.
func (g Group) Order() uint64 { return g.l }

// Combine returns wa ⊕ wb in the group (modular addition; any abelian group
// operation works for the argument, and Z_L keeps the arithmetic explicit).
func (g Group) Combine(wa, wb uint64) (uint64, error) {
	if wa >= g.l || wb >= g.l {
		return 0, fmt.Errorf("%w: (%d, %d) in Z_%d", ErrRange, wa, wb, g.l)
	}
	return (wa + wb) % g.l, nil
}

// RecoverFrom returns the peer message given the relay broadcast wr and the
// node's own message own: wr ⊖ own.
func (g Group) RecoverFrom(wr, own uint64) (uint64, error) {
	if wr >= g.l || own >= g.l {
		return 0, fmt.Errorf("%w: (%d, %d) in Z_%d", ErrRange, wr, own, g.l)
	}
	return (wr + g.l - own) % g.l, nil
}

// Binning is a random partition of a message set into bins, realizing the
// paper's sa(wa)/sb(wb) indices for TDBC: the relay only needs to broadcast
// the (lower-rate) XOR of bin indices because the terminals hold side
// information that pins the message within its bin.
type Binning struct {
	bins  uint64
	index []uint64 // message -> bin
}

// NewBinning randomly partitions a set of `messages` messages into `bins`
// bins with a uniform independent assignment, exactly the random-partition
// construction in the proof of Theorem 3.
func NewBinning(messages, bins uint64, r *rand.Rand) (Binning, error) {
	if bins == 0 {
		return Binning{}, ErrBins
	}
	if messages == 0 {
		return Binning{}, fmt.Errorf("netcode: empty message set")
	}
	idx := make([]uint64, messages)
	for i := range idx {
		idx[i] = uint64(r.Int63n(int64(bins)))
	}
	return Binning{bins: bins, index: idx}, nil
}

// Bins returns the number of bins.
func (b Binning) Bins() uint64 { return b.bins }

// Messages returns the number of messages.
func (b Binning) Messages() uint64 { return uint64(len(b.index)) }

// Bin returns the bin index of message w.
func (b Binning) Bin(w uint64) (uint64, error) {
	if w >= uint64(len(b.index)) {
		return 0, fmt.Errorf("%w: %d of %d", ErrRange, w, len(b.index))
	}
	return b.index[w], nil
}

// Members returns all messages in bin s. The decoder intersects this list
// with its channel-likelihood information (in the bit-true simulator, with
// its pool of linear equations).
func (b Binning) Members(s uint64) []uint64 {
	var out []uint64
	for w, bin := range b.index {
		if bin == s {
			out = append(out, uint64(w))
		}
	}
	return out
}

// XORWord combines two equal-length bit vectors, the Z_2^k realization the
// paper cites from Larsson et al. It is a thin wrapper over gf2 so protocol
// code does not import gf2 directly for this one operation.
func XORWord(wa, wb gf2.Vector) (gf2.Vector, error) {
	return wa.Xor(wb)
}

// PadCombine XORs two bit-vector messages of possibly different lengths by
// zero-padding the shorter to the longer — the Z_2^max(ka,kb) group of the
// paper when message sets have different rates.
func PadCombine(wa, wb gf2.Vector) gf2.Vector {
	n := wa.Len()
	if wb.Len() > n {
		n = wb.Len()
	}
	out := gf2.NewVector(n)
	// Lengths are max by construction, so PadCombineInto cannot fail.
	_ = PadCombineInto(&out, wa, wb)
	return out
}

// PadCombineInto computes the zero-padded XOR wa ⊕ wb into dst without
// allocating, word by word; dst must have max(len(wa), len(wb)) bits.
func PadCombineInto(dst *gf2.Vector, wa, wb gf2.Vector) error {
	n := wa.Len()
	if wb.Len() > n {
		n = wb.Len()
	}
	if dst.Len() != n {
		return fmt.Errorf("netcode: pad-combine into %d bits, want %d", dst.Len(), n)
	}
	dst.CopyPrefix(wa)
	return dst.XorWith(wb)
}
