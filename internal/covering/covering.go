// Package covering solves the unate covering problem — pick a minimum set
// of columns such that every row has a picked column — by branch and bound
// with a greedy incumbent. It is shared by the exact two-level minimizer
// (prime selection) and espresso's irredundant pass (partially-redundant
// cube selection).
package covering

// Options tune the solver.
type Options struct {
	// MaxNodes bounds the search; 0 means the default (5,000,000). When
	// exceeded the best cover found so far is returned (still a valid
	// cover, no larger than the greedy one) and reported unproven.
	MaxNodes int
}

// solver holds one search's state. The search it performs is part of
// the repo's determinism contract: on budget exhaustion the result
// depends on visit order.
type solver struct {
	colOff  []int // ncols+1 offsets into colRows
	colRows []int // rows of each column, flattened, row index ascending
	covered []int
	cur     []int
	best    []int

	rowCols   [][]int
	maxNodes  int
	nodes     int
	uncovered int
}

// Solve returns a set of column indices covering all rows, and whether
// the search proved it minimum: it is unproven only when the search ran
// out of its node budget, and is then the best cover found so far
// (feasible, and no larger than the greedy one). rowCols[r] lists the
// columns covering row r; every row must have at least one.
func Solve(rowCols [][]int, ncols int, opts ...Options) (cols []int, proven bool) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 5_000_000
	}
	s := solver{rowCols: rowCols, maxNodes: o.MaxNodes, uncovered: len(rowCols)}
	s.buildColRows(rowCols, ncols)
	s.greedy(rowCols, ncols)
	s.covered = make([]int, len(rowCols))
	s.dfs()
	return s.best, s.nodes <= s.maxNodes
}

// buildColRows flattens the column->rows transpose, each column's rows
// in ascending row order.
func (s *solver) buildColRows(rowCols [][]int, ncols int) {
	s.colOff = make([]int, ncols+1)
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
	s.colRows = make([]int, total)
	cursor := append([]int(nil), s.colOff[:ncols]...)
	for ri, cols := range rowCols {
		for _, c := range cols {
			s.colRows[cursor[c]] = ri
			cursor[c]++
		}
	}
}

// rowsOf returns column c's rows.
func (s *solver) rowsOf(c int) []int { return s.colRows[s.colOff[c]:s.colOff[c+1]] }

// greedy computes the incumbent into s.best: repeatedly take the column
// covering the most uncovered rows (ties to the lowest index).
func (s *solver) greedy(rowCols [][]int, ncols int) {
	gcov := make([]bool, len(rowCols))
	left := len(rowCols)
	for left > 0 {
		bestC, bestGain := -1, 0
		for c := 0; c < ncols; c++ {
			gain := 0
			for _, ri := range s.rowsOf(c) {
				if !gcov[ri] {
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
			if !gcov[ri] {
				gcov[ri] = true
				left--
			}
		}
	}
}

func (s *solver) pick(c int) {
	s.cur = append(s.cur, c)
	for _, ri := range s.rowsOf(c) {
		if s.covered[ri] == 0 {
			s.uncovered--
		}
		s.covered[ri]++
	}
}

func (s *solver) unpick() {
	c := s.cur[len(s.cur)-1]
	s.cur = s.cur[:len(s.cur)-1]
	for _, ri := range s.rowsOf(c) {
		s.covered[ri]--
		if s.covered[ri] == 0 {
			s.uncovered++
		}
	}
}

func (s *solver) dfs() {
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
