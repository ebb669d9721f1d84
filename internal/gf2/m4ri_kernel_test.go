package gf2

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// clearBlockGuard is the number of words FuzzClearBlockMatchesGo places
// before and after the row view and after the tables; no kernel may touch
// them.
const clearBlockGuard = 3

// FuzzClearBlockMatchesGo runs the AVX2 kernel and clearBlockGo on
// identical random tableaux and tables, which must leave identical buffers:
// the cleared rows, the words between rows (stride > tw), the guard words
// around the view and the tables themselves. The fuzzed shape covers tw
// 1–40 (every tail of 0–3 words, and rows shorter than one vector), blocks
// at shifts 0/16/32/48 with 1–16 columns, and rows whose block bits are
// zero, which the kernels must skip.
func FuzzClearBlockMatchesGo(f *testing.F) {
	if !haveAVX2 {
		f.Skip("clearBlock runs clearBlockGo alone on this build or CPU")
	}
	for _, tw := range []uint8{1, 2, 3, 4, 5, 6, 7, 8, 11, 40} {
		for sh := uint8(0); sh < 4; sh++ {
			f.Add(tw, uint8(sh%3), uint8(9), sh, uint8(15), uint8(sh), int64(tw)<<2|int64(sh))
		}
	}
	f.Add(uint8(40), uint8(7), uint8(1), uint8(3), uint8(0), uint8(0), int64(-1))
	f.Add(uint8(3), uint8(0), uint8(23), uint8(1), uint8(6), uint8(1), int64(7))
	f.Fuzz(func(t *testing.T, width, pad, nrows, shiftSel, ge, zeroEvery uint8, seed int64) {
		tw := max(int(width)%41, 1)
		stride := tw + int(pad)%8
		m := 1 + int(nrows)%24
		shift := uint(16 * (shiftSel % 4))
		mask := uint64(1)<<(1+uint(ge)%m4riBlock) - 1
		r := rand.New(rand.NewSource(seed))

		n := (m-1)*stride + tw
		buf := make([]uint64, clearBlockGuard+n+clearBlockGuard)
		for i := range buf {
			buf[i] = r.Uint64()
		}
		view := buf[clearBlockGuard : clearBlockGuard+n]
		if every := int(zeroEvery) % 4; every > 0 {
			for i := 0; i < m; i += every {
				view[i*stride] &^= mask << shift
			}
		}
		tab := make([]uint64, m4riTables*m4riEntries*tw+clearBlockGuard)
		for i := range tab {
			tab[i] = r.Uint64()
		}
		tabs := tab[:m4riTables*m4riEntries*tw]
		want, wantTab := slices.Clone(buf), slices.Clone(tab)

		clearBlockGo(want[clearBlockGuard:clearBlockGuard+n], stride, tw, shift, mask, slices.Clone(tabs))
		clearBlockAVX2(view, stride, tw, shift, mask, tabs)
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("tw=%d stride=%d rows=%d shift=%d mask=%#x: word %d (view offset %d) = %#x, Go kernel %#x",
					tw, stride, m, shift, mask, i, i-clearBlockGuard, buf[i], want[i])
			}
		}
		if !slices.Equal(tab, wantTab) {
			t.Fatalf("tw=%d: the AVX2 kernel wrote to its tables", tw)
		}
	})
}

// TestClearBlockRejectsBadShapes pins clearBlock's shape check: a view that
// is not whole rows of tw words at stride, tables too short for tw, a block
// index wider than m4riBlock or a shift past the word panics with ErrShape
// instead of reaching a kernel.
func TestClearBlockRejectsBadShapes(t *testing.T) {
	const tw, stride = 5, 7
	tab := make([]uint64, m4riTables*m4riEntries*tw)
	rows := make([]uint64, 2*stride+tw)
	cases := []struct {
		name         string
		rows         []uint64
		stride, tw   int
		shift        uint
		mask         uint64
		tab          []uint64
		wantPanicked bool
	}{
		{"whole rows", rows, stride, tw, 0, 0xffff, tab, false},
		{"partial last row", rows[:len(rows)-1], stride, tw, 0, 0xffff, tab, true},
		{"no row", rows[:tw-1], stride, tw, 0, 0xffff, tab, true},
		{"zero width", rows, stride, 0, 0, 0xffff, tab, true},
		{"row wider than stride", rows, tw - 1, tw, 0, 0xffff, tab, true},
		{"short tables", rows, stride, tw, 0, 0xffff, tab[:len(tab)-1], true},
		{"wide block", rows, stride, tw, 0, 0x1ffff, tab, true},
		{"shift past the word", rows, stride, tw, 64, 0xffff, tab, true},
	}
	for _, c := range cases {
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err, _ = p.(error)
				}
			}()
			clearBlock(c.rows, c.stride, c.tw, c.shift, c.mask, c.tab)
			return nil
		}()
		if c.wantPanicked != errors.Is(err, ErrShape) {
			t.Errorf("%s: clearBlock panicked with %v, want ErrShape: %v", c.name, err, c.wantPanicked)
		}
	}
}
