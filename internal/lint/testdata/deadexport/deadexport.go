// Package deadexport is the fixture for TestDeadExportsFixture.
package deadexport

import "strconv"

// Dead is referenced only by itself, so it is flagged.
func Dead(n int) int {
	if n == 0 {
		return 0
	}
	return Dead(n - 1)
}

// Live is called by use, so it is not flagged.
func Live() int { return 1 }

func use() int { return Live() }

// Waived is referenced nowhere but carries a waiver.
//
//bicoop:allow deadexport — fixture: a waived export is not flagged
func Waived() {}

// Count is never named, but its String method satisfies fmt.Stringer.
type Count int

func (c Count) String() string { return strconv.Itoa(int(c)) }
