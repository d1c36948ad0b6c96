// Package covering solves the unate covering problem — pick a minimum set
// of columns such that every row has a picked column — by branch and bound
// with a greedy incumbent. It is shared by the exact two-level minimizer
// (prime selection) and espresso's irredundant pass (partially-redundant
// cube selection).
package covering

// Options tune the solver.
type Options struct {
	// MaxNodes bounds the search; 0 means the default (5,000,000). When
	// exceeded the greedy incumbent is returned (still a valid cover).
	MaxNodes int
}

// Solver is a reusable covering solver. Its buffers persist across Solve
// calls so steady-state solves perform no heap allocation; the slice
// returned by Solve is owned by the Solver and valid only until the next
// call. The search it performs is identical, node for node, to the
// original recursive formulation: the branch-and-bound order is part of
// the repo's determinism contract (on budget exhaustion the result depends
// on visit order).
type Solver struct {
	colOff  []int // ncols+1 offsets into colRows
	colRows []int // rows of each column, flattened, row index ascending
	cursor  []int // fill cursor scratch for buildColRows
	covered []int
	cur     []int
	best    []int
	gcov    []bool

	rowCols   [][]int
	maxNodes  int
	nodes     int
	uncovered int
}

// Solve returns a minimum (or, on budget exhaustion, at least feasible
// and greedy-good) set of column indices covering all rows. rowCols[r]
// lists the columns covering row r; every row must have at least one.
// The returned slice is reused by the next call.
func (s *Solver) Solve(rowCols [][]int, ncols int, opts ...Options) []int {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 5_000_000
	}
	s.rowCols = rowCols
	s.maxNodes = o.MaxNodes
	s.buildColRows(rowCols, ncols)
	s.greedy(rowCols, ncols)
	s.cur = s.cur[:0]
	s.covered = growInts(s.covered, len(rowCols))
	for i := range s.covered {
		s.covered[i] = 0
	}
	s.uncovered = len(rowCols)
	s.nodes = 0
	s.dfs()
	return s.best
}

// buildColRows flattens the column->rows transpose. Each column's rows are
// appended in ascending row order, exactly as the original per-column
// append loop produced them.
func (s *Solver) buildColRows(rowCols [][]int, ncols int) {
	s.colOff = growInts(s.colOff, ncols+1)
	for i := range s.colOff {
		s.colOff[i] = 0
	}
	total := 0
	for _, cols := range rowCols {
		for _, c := range cols {
			s.colOff[c+1]++
			total++
		}
	}
	for c := 0; c < ncols; c++ {
		s.colOff[c+1] += s.colOff[c]
	}
	s.colRows = growInts(s.colRows, total)
	s.cursor = growInts(s.cursor, ncols)
	copy(s.cursor, s.colOff[:ncols])
	for ri, cols := range rowCols {
		for _, c := range cols {
			s.colRows[s.cursor[c]] = ri
			s.cursor[c]++
		}
	}
}

// rowsOf returns column c's rows.
func (s *Solver) rowsOf(c int) []int { return s.colRows[s.colOff[c]:s.colOff[c+1]] }

// greedy computes the incumbent into s.best: repeatedly take the column
// covering the most uncovered rows (ties to the lowest index).
func (s *Solver) greedy(rowCols [][]int, ncols int) {
	s.gcov = growBools(s.gcov, len(rowCols))
	for i := range s.gcov {
		s.gcov[i] = false
	}
	left := len(rowCols)
	s.best = s.best[:0]
	for left > 0 {
		bestC, bestGain := -1, 0
		for c := 0; c < ncols; c++ {
			gain := 0
			for _, ri := range s.rowsOf(c) {
				if !s.gcov[ri] {
					gain++
				}
			}
			if gain > bestGain {
				bestC, bestGain = c, gain
			}
		}
		if bestC < 0 {
			break
		}
		s.best = append(s.best, bestC)
		for _, ri := range s.rowsOf(bestC) {
			if !s.gcov[ri] {
				s.gcov[ri] = true
				left--
			}
		}
	}
}

func (s *Solver) pick(c int) {
	s.cur = append(s.cur, c)
	for _, ri := range s.rowsOf(c) {
		if s.covered[ri] == 0 {
			s.uncovered--
		}
		s.covered[ri]++
	}
}

func (s *Solver) unpick() {
	c := s.cur[len(s.cur)-1]
	s.cur = s.cur[:len(s.cur)-1]
	for _, ri := range s.rowsOf(c) {
		s.covered[ri]--
		if s.covered[ri] == 0 {
			s.uncovered++
		}
	}
}

func (s *Solver) dfs() {
	s.nodes++
	if s.nodes > s.maxNodes {
		return
	}
	if s.uncovered == 0 {
		if len(s.cur) < len(s.best) {
			s.best = append(s.best[:0], s.cur...)
		}
		return
	}
	if len(s.cur)+1 >= len(s.best) {
		return
	}
	bestRow, bestLen := -1, 1<<30
	for ri, cols := range s.rowCols {
		if s.covered[ri] > 0 {
			continue
		}
		if len(cols) < bestLen {
			bestRow, bestLen = ri, len(cols)
		}
	}
	for _, c := range s.rowCols[bestRow] {
		s.pick(c)
		s.dfs()
		s.unpick()
	}
}

// Solve is the one-shot entry point; it allocates a fresh Solver per call
// and copies the result, preserving the original value semantics.
func Solve(rowCols [][]int, ncols int, opts ...Options) []int {
	var s Solver
	return append([]int(nil), s.Solve(rowCols, ncols, opts...)...)
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
