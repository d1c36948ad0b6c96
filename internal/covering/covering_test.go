package covering

import (
	"math/rand"
	"testing"
)

func TestSolveKnownOptima(t *testing.T) {
	cases := []struct {
		rows  [][]int
		ncols int
		want  int
	}{
		{[][]int{{0}}, 1, 1},
		{[][]int{{0, 1}, {1, 2}, {0, 2}}, 3, 2},
		{[][]int{{0, 1, 2}, {3}}, 4, 2},
		{[][]int{{0}, {1}, {2}}, 3, 3},
		{[][]int{{0, 1}, {0, 1}, {0, 1}}, 2, 1},
	}
	for i, tc := range cases {
		got, proven := Solve(tc.rows, tc.ncols)
		if !proven || len(got) != tc.want {
			t.Errorf("case %d: |cover| = %d (proven %v), want %d (%v)", i, len(got), proven, tc.want, got)
		}
		if !covers(tc.rows, got) {
			t.Errorf("case %d: result %v does not cover", i, got)
		}
	}
}

func covers(rows [][]int, chosen []int) bool {
	set := map[int]bool{}
	for _, c := range chosen {
		set[c] = true
	}
	for _, cols := range rows {
		ok := false
		for _, c := range cols {
			if set[c] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// bruteMin finds the true optimum by subset enumeration.
func bruteMin(rows [][]int, ncols int) int {
	for size := 0; size <= ncols; size++ {
		var chosen []int
		var rec func(start int) bool
		rec = func(start int) bool {
			if len(chosen) == size {
				return covers(rows, chosen)
			}
			for c := start; c < ncols; c++ {
				chosen = append(chosen, c)
				if rec(c + 1) {
					return true
				}
				chosen = chosen[:len(chosen)-1]
			}
			return false
		}
		if rec(0) {
			return size
		}
	}
	return ncols + 1
}

func TestSolveMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	for trial := 0; trial < 200; trial++ {
		ncols := 2 + r.Intn(8)
		nrows := 1 + r.Intn(10)
		rows := make([][]int, nrows)
		for i := range rows {
			for c := 0; c < ncols; c++ {
				if r.Intn(3) == 0 {
					rows[i] = append(rows[i], c)
				}
			}
			if len(rows[i]) == 0 {
				rows[i] = append(rows[i], r.Intn(ncols))
			}
		}
		got, proven := Solve(rows, ncols)
		want := bruteMin(rows, ncols)
		if !proven || len(got) != want {
			t.Fatalf("solver %d (proven %v), brute force %d for %v", len(got), proven, want, rows)
		}
		if !covers(rows, got) {
			t.Fatalf("invalid cover %v for %v", got, rows)
		}
	}
}

func TestBudgetReturnsFeasible(t *testing.T) {
	rows := make([][]int, 12)
	for i := range rows {
		rows[i] = []int{i, (i + 1) % 12, (i + 5) % 12}
	}
	got, proven := Solve(rows, 12, Options{MaxNodes: 3})
	if !covers(rows, got) {
		t.Fatal("budgeted solve must still return a valid cover")
	}
	if proven {
		t.Fatal("a search cut off after 3 nodes must not report its cover proven")
	}
	if _, proven = Solve(rows, 12); !proven {
		t.Fatal("the default budget must finish this search")
	}
}
