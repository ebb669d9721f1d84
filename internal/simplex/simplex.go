// Package simplex implements a small dense linear-programming solver used to
// optimize the phase durations Δℓ of the paper's protocols (Section IV:
// "Linear programming may then be used to find optimal time durations").
//
// The solver is a textbook two-phase primal simplex on the standard form
//
//	maximize    c·x
//	subject to  A_ub·x ≤ b_ub,  A_eq·x = b_eq,  x ≥ 0,
//
// with Bland's rule for anti-cycling. The LPs in this module are tiny (at
// most a dozen variables and constraints), so clarity is preferred over
// sparse-matrix machinery — but the solver is on the Monte Carlo hot path
// (one LP per protocol per fading block), so the tableau lives in a reusable
// Workspace and steady-state solves perform no heap allocation. Artificial
// variables are introduced only where a starting basis actually needs them
// (equality rows and inequality rows with negative right-hand sides), which
// keeps phase 1 to a handful of pivots on the phase-duration LPs.
package simplex

import (
	"errors"
	"fmt"
	"math"
)

// Status describes the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal basic feasible solution was found.
	StatusOptimal Status = iota + 1
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded above.
	StatusUnbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Errors returned by Solve.
var (
	ErrInfeasible = errors.New("simplex: infeasible")
	ErrUnbounded  = errors.New("simplex: unbounded")
	ErrShape      = errors.New("simplex: dimension mismatch")
	ErrCycle      = errors.New("simplex: iteration limit exceeded")
)

// Problem is a linear program in standard inequality/equality form over
// non-negative variables.
type Problem struct {
	// C is the objective row: maximize C·x.
	C []float64
	// AUb and BUb give inequality rows AUb[i]·x ≤ BUb[i].
	AUb [][]float64
	BUb []float64
	// AEq and BEq give equality rows AEq[i]·x = BEq[i].
	AEq [][]float64
	BEq []float64
}

// Solution is an optimal LP solution.
type Solution struct {
	// X is the optimal primal point. For SolveIn it aliases workspace
	// memory and is valid until the workspace's next solve.
	X []float64
	// Objective is C·X.
	Objective float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
}

const (
	pivotTol   = 1e-9
	feasTol    = 1e-7
	iterFactor = 200 // iteration cap multiplier on (rows + cols)
)

// Workspace holds the solver's tableau storage so repeated solves reuse one
// set of buffers. The zero value is ready to use; it grows to fit the largest
// problem it has seen and is then allocation-free for problems of that size
// or smaller. A Workspace must not be used from multiple goroutines
// concurrently.
type Workspace struct {
	flat  []float64   // row-major tableau backing, mRows × (nCols+1)
	rows  [][]float64 // row headers into flat
	obj   []float64   // phase-2 objective row (reduced costs)
	art   []float64   // phase-1 objective row
	basis []int       // basic variable of each row
	x     []float64   // solution buffer returned via Solution.X
}

// ensure sizes the workspace for a tableau of mRows rows and nCols variable
// columns (plus the RHS column) and nStruct structural variables, zeroing the
// region that will be used.
func (ws *Workspace) ensure(mRows, nCols, nStruct int) {
	stride := nCols + 1
	need := mRows * stride
	if cap(ws.flat) < need {
		ws.flat = make([]float64, need)
	}
	ws.flat = ws.flat[:need]
	clear(ws.flat)
	if cap(ws.rows) < mRows {
		ws.rows = make([][]float64, mRows)
	}
	ws.rows = ws.rows[:mRows]
	for i := 0; i < mRows; i++ {
		ws.rows[i] = ws.flat[i*stride : (i+1)*stride]
	}
	if cap(ws.obj) < stride {
		ws.obj = make([]float64, stride)
		ws.art = make([]float64, stride)
	}
	ws.obj = ws.obj[:stride]
	ws.art = ws.art[:stride]
	clear(ws.obj)
	clear(ws.art)
	if cap(ws.basis) < mRows {
		ws.basis = make([]int, mRows)
	}
	ws.basis = ws.basis[:mRows]
	if cap(ws.x) < nStruct {
		ws.x = make([]float64, nStruct)
	}
	ws.x = ws.x[:nStruct]
	clear(ws.x)
}

// Solve maximizes the problem and returns the optimal solution. It returns
// ErrInfeasible or ErrUnbounded wrapped with context when the LP has no
// optimum. Each call uses a fresh workspace; use SolveIn to amortize the
// allocations across repeated solves.
func (p Problem) Solve() (Solution, error) {
	var ws Workspace
	return p.SolveIn(&ws)
}

// SolveIn maximizes the problem using the given workspace's storage. Repeat
// solves of same-shaped (or smaller) problems perform no heap allocation.
// The returned Solution.X aliases workspace memory: it is valid until the
// workspace's next solve, so copy it out if it must survive longer.
func (p Problem) SolveIn(ws *Workspace) (Solution, error) {
	n := len(p.C)
	if n == 0 {
		return Solution{}, fmt.Errorf("%w: empty objective", ErrShape)
	}
	for i, row := range p.AUb {
		if len(row) != n {
			return Solution{}, fmt.Errorf("%w: AUb row %d has %d entries, want %d", ErrShape, i, len(row), n)
		}
	}
	for i, row := range p.AEq {
		if len(row) != n {
			return Solution{}, fmt.Errorf("%w: AEq row %d has %d entries, want %d", ErrShape, i, len(row), n)
		}
	}
	if len(p.AUb) != len(p.BUb) || len(p.AEq) != len(p.BEq) {
		return Solution{}, fmt.Errorf("%w: rows %d/%d vs rhs %d/%d", ErrShape, len(p.AUb), len(p.AEq), len(p.BUb), len(p.BEq))
	}

	t := newTableau(p, ws)
	if err := t.phase1(); err != nil {
		return Solution{}, err
	}
	if err := t.phase2(); err != nil {
		return Solution{}, err
	}
	sol := t.solution(ws)
	p.refineSolution(ws, &t, &sol)
	return sol, nil
}

// refineSolution recomputes the basic variables of an optimal solution
// directly from the original problem data given the final basis, via dense
// Gaussian elimination with partial pivoting. It applies to pure-inequality
// problems with non-negative right-hand sides (the shape the evaluator hot
// path emits). The tableau's pivot history then no longer influences the
// returned numbers: every solve ending in the same basis returns
// bitwise-identical results, whatever pivot path reached it, so the last
// bits of the published figures depend only on the final basis, not on
// accumulated pivot rounding. On a singular or out-of-shape system it leaves
// the tableau solution untouched.
func (p Problem) refineSolution(ws *Workspace, t *tableau, sol *Solution) {
	if len(p.AEq) != 0 || t.nArt != 0 {
		return
	}
	for _, b := range p.BUb {
		if b < 0 {
			return
		}
	}
	m := len(t.rows)
	// Reuse the (no longer needed) tableau rows as the m x (m+1) augmented
	// system M·y = b, where unknown y_k is the value of row k's basic
	// variable: M[i][k] is that variable's coefficient in original row i.
	aug := t.rows
	for i := 0; i < m; i++ {
		row := aug[i]
		for k := 0; k < m; k++ {
			j := t.basis[k]
			switch {
			case j < t.nStruct:
				row[k] = p.AUb[i][j]
			case j-t.nStruct == i:
				row[k] = 1
			default:
				row[k] = 0
			}
		}
		row[m] = p.BUb[i]
	}
	for col := 0; col < m; col++ {
		piv, best := col, math.Abs(aug[col][col])
		for r := col + 1; r < m; r++ {
			if a := math.Abs(aug[r][col]); a > best {
				piv, best = r, a
			}
		}
		if best < 1e-12 {
			return // singular basis system; keep the tableau solution
		}
		aug[piv], aug[col] = aug[col], aug[piv]
		prow := aug[col]
		for r := col + 1; r < m; r++ {
			f := aug[r][col] / prow[col]
			if f == 0 {
				continue
			}
			row := aug[r]
			for c := col + 1; c <= m; c++ {
				row[c] -= f * prow[c]
			}
			row[col] = 0
		}
	}
	y := ws.art[:m] // phase-1 row storage is free after the solve
	for k := m - 1; k >= 0; k-- {
		v := aug[k][m]
		for c := k + 1; c < m; c++ {
			v -= aug[k][c] * y[c]
		}
		y[k] = v / aug[k][k]
	}
	clear(ws.x)
	for k := 0; k < m; k++ {
		if j := t.basis[k]; j < t.nStruct {
			ws.x[j] = y[k]
		}
	}
	obj := 0.0
	for j, c := range p.C {
		obj += c * ws.x[j]
	}
	sol.X = ws.x
	sol.Objective = obj
}

// tableau holds the dense simplex tableau. Columns are laid out as
// [structural vars | slack vars | artificial vars | RHS]. Artificial
// variables exist only for rows whose starting basis cannot be a slack:
// equality rows and inequality rows whose RHS was negative (those are sign-
// flipped, turning the slack coefficient to -1).
type tableau struct {
	rows      [][]float64 // constraint rows
	obj       []float64   // phase-2 objective row (reduced costs)
	art       []float64   // phase-1 objective row
	basis     []int       // basic variable of each row
	nStruct   int
	nSlack    int
	nArt      int
	nCols     int // total variable columns (excludes RHS)
	iterCount int
}

func newTableau(p Problem, ws *Workspace) tableau {
	nStruct := len(p.C)
	nSlack := len(p.AUb)
	mRows := len(p.AUb) + len(p.AEq)

	// Count the rows that need an artificial basis variable: every equality
	// row, and every inequality row whose RHS is negative (the sign flip that
	// makes the RHS non-negative also flips its slack to -1).
	nArt := len(p.AEq)
	for _, b := range p.BUb {
		if b < 0 {
			nArt++
		}
	}
	nCols := nStruct + nSlack + nArt

	ws.ensure(mRows, nCols, nStruct)
	t := tableau{
		rows:    ws.rows,
		obj:     ws.obj,
		art:     ws.art,
		basis:   ws.basis,
		nStruct: nStruct,
		nSlack:  nSlack,
		nArt:    nArt,
		nCols:   nCols,
	}

	artNext := nStruct + nSlack // next artificial column to hand out
	for i := 0; i < mRows; i++ {
		row := t.rows[i]
		var src []float64
		var rhs float64
		isEq := i >= len(p.AUb)
		if isEq {
			src, rhs = p.AEq[i-len(p.AUb)], p.BEq[i-len(p.AUb)]
		} else {
			src, rhs = p.AUb[i], p.BUb[i]
		}
		copy(row, src)
		if !isEq {
			row[nStruct+i] = 1 // slack
		}
		row[nCols] = rhs
		// Normalize to a non-negative RHS so the starting basis is feasible.
		if row[nCols] < 0 {
			for j := range row {
				row[j] = -row[j]
			}
		}
		if isEq || (!isEq && row[nStruct+i] < 0) {
			row[artNext] = 1
			t.basis[i] = artNext
			artNext++
		} else {
			t.basis[i] = nStruct + i
		}
	}

	// Phase-2 objective (stored negated: we minimize -c·x).
	for j := 0; j < nStruct; j++ {
		t.obj[j] = -p.C[j]
	}
	if nArt > 0 {
		// Phase-1 objective: minimize the sum of artificials. Express the
		// reduced costs with the starting basis priced out: subtracting each
		// artificial-basis row cancels that artificial's unit cost and leaves
		// -Σ(rows with artificials) on the remaining columns.
		for i := range t.rows {
			if t.basis[i] < nStruct+nSlack {
				continue
			}
			row := t.rows[i]
			for j := 0; j <= nCols; j++ {
				t.art[j] -= row[j]
			}
		}
		for i := range t.rows {
			t.art[t.basis[i]] = 0
		}
	}
	return t
}

func (t *tableau) maxIter() int {
	return iterFactor * (len(t.rows) + t.nCols + 1)
}

// pivot performs a standard simplex pivot on (row, col).
//
//bicoop:noalloc
func (t *tableau) pivot(row, col int) {
	pr := t.rows[row]
	pv := pr[col]
	inv := 1 / pv
	for j := range pr {
		pr[j] *= inv
	}
	for i := range t.rows {
		if i == row {
			continue
		}
		factor := t.rows[i][col]
		if factor == 0 {
			continue
		}
		r := t.rows[i]
		for j := range r {
			r[j] -= factor * pr[j]
		}
	}
	t.eliminateObjRow(t.obj, col, pr)
	t.eliminateObjRow(t.art, col, pr)
	t.basis[row] = col
	t.iterCount++
}

//bicoop:noalloc
func (t *tableau) eliminateObjRow(objRow []float64, col int, pr []float64) {
	factor := objRow[col]
	if factor == 0 {
		return
	}
	for j := range objRow {
		objRow[j] -= factor * pr[j]
	}
}

// ratioRow picks the leaving row by the minimum-ratio test with Bland
// tie-breaking (smallest basis index). Returns -1 when unbounded.
//
//bicoop:noalloc
func (t *tableau) ratioRow(col int) int {
	bestRow := -1
	bestRatio := math.Inf(1)
	for i, r := range t.rows {
		a := r[col]
		if a <= pivotTol {
			continue
		}
		ratio := r[t.nCols] / a
		if ratio < bestRatio-pivotTol ||
			(math.Abs(ratio-bestRatio) <= pivotTol && (bestRow == -1 || t.basis[i] < t.basis[bestRow])) {
			bestRatio = ratio
			bestRow = i
		}
	}
	return bestRow
}

// iterate runs simplex pivots against the given objective row until no
// entering column remains. allowCols limits candidate entering columns.
// Entering columns are picked by Dantzig's rule (most negative reduced
// cost, fewest pivots in practice); if the iteration count ever reaches the
// Bland threshold — which only a degenerate cycle does on these tiny LPs —
// it switches to Bland's rule, whose termination guarantee then applies.
//
//bicoop:noalloc
func (t *tableau) iterate(objRow []float64, allowCols int) error {
	limit := t.maxIter()
	blandAt := limit / 2
	for {
		if t.iterCount > limit {
			return ErrCycle
		}
		col := -1
		if t.iterCount < blandAt {
			best := -pivotTol
			for j := 0; j < allowCols; j++ {
				if objRow[j] < best {
					best = objRow[j]
					col = j
				}
			}
		} else {
			// Bland's rule: first column with a negative reduced cost.
			for j := 0; j < allowCols; j++ {
				if objRow[j] < -pivotTol {
					col = j
					break
				}
			}
		}
		if col == -1 {
			return nil
		}
		row := t.ratioRow(col)
		if row == -1 {
			return ErrUnbounded
		}
		t.pivot(row, col)
	}
}

func (t *tableau) phase1() error {
	if t.nArt == 0 {
		return nil // the all-slack basis is already feasible
	}
	if err := t.iterate(t.art, t.nCols); err != nil {
		if errors.Is(err, ErrUnbounded) {
			// Phase-1 objective is bounded below by 0; unbounded here means a
			// numerical anomaly, treat as infeasible.
			return fmt.Errorf("%w: phase-1 anomaly", ErrInfeasible)
		}
		return err
	}
	// art row's RHS holds -(sum of artificials) at optimum.
	if -t.art[t.nCols] > feasTol {
		return fmt.Errorf("%w: artificial residual %g", ErrInfeasible, -t.art[t.nCols])
	}
	// Drive any artificial variables still in the basis (at zero level) out.
	for i := range t.rows {
		if t.basis[i] < t.nStruct+t.nSlack {
			continue
		}
		swapped := false
		for j := 0; j < t.nStruct+t.nSlack; j++ {
			if math.Abs(t.rows[i][j]) > pivotTol {
				t.pivot(i, j)
				swapped = true
				break
			}
		}
		if !swapped {
			// The row is redundant (all-zero over real columns); zero it.
			for j := range t.rows[i] {
				t.rows[i][j] = 0
			}
		}
	}
	return nil
}

func (t *tableau) phase2() error {
	// Exclude artificial columns from entering.
	if err := t.iterate(t.obj, t.nStruct+t.nSlack); err != nil {
		if errors.Is(err, ErrUnbounded) {
			return ErrUnbounded
		}
		return err
	}
	return nil
}

func (t *tableau) solution(ws *Workspace) Solution {
	x := ws.x
	for i, b := range t.basis {
		if b < t.nStruct {
			x[b] = t.rows[i][t.nCols]
		}
	}
	// obj row RHS holds c·x (minimization of -c·x stores the negated value).
	return Solution{X: x, Objective: t.obj[t.nCols], Iterations: t.iterCount}
}
