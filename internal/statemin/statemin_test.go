package statemin

import (
	"fmt"
	"sort"
	"testing"

	"picola/internal/benchgen"
	"picola/internal/kiss"
	"picola/internal/stassign"
)

// outputsDiffer reports any difference (equality predicate).
func outputsDiffer(a, b string) bool { return a != b }

// CompatiblePairs returns the state pairs that can share a code class in
// an incompletely specified machine, sorted lexicographically.
func CompatiblePairs(m *kiss.FSM) ([][2]string, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ch := buildChart(m, outputsConflict)
	var out [][2]string
	for i := 0; i < ch.n; i++ {
		for j := i + 1; j < ch.n; j++ {
			if !ch.incompatible[pairIndex(i, j, ch.n)] {
				out = append(out, [2]string{m.States[i], m.States[j]})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out, nil
}

// IsCompletelySpecified reports whether every state covers the whole
// input space with fully specified outputs and next states.
func IsCompletelySpecified(m *kiss.FSM) bool {
	for _, st := range m.States {
		rows := m.TransitionsFrom(st)
		// The rows must cover the input space; check by counting minterms
		// of disjoint rows (benchmarks keep per-state rows disjoint).
		total := uint64(0)
		for _, t := range rows {
			if t.To == "*" {
				return false
			}
			for _, c := range t.Output {
				if c == '-' {
					return false
				}
			}
			m := uint64(1)
			for _, c := range t.Input {
				if c == '-' {
					m *= 2
				}
			}
			total += m
		}
		if total != uint64(1)<<uint(m.NumInputs) {
			return false
		}
	}
	return true
}

// Equivalent reduces a completely specified machine by merging equivalent
// states. It returns the reduced machine and the representative map
// (state name → class representative name).
func Equivalent(m *kiss.FSM) (*kiss.FSM, map[string]string, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	if !IsCompletelySpecified(m) {
		return nil, nil, fmt.Errorf("statemin: machine is not completely specified; use ReduceCompatible")
	}
	ch := buildChart(m, outputsDiffer)
	return mergeByChart(m, ch, nil)
}

// twins: states b and c behave identically (completely specified).
const twins = `
.i 1
.o 1
0 a b 0
1 a c 0
0 b a 1
1 b b 0
0 c a 1
1 c c 0
`

func TestEquivalentMergesTwins(t *testing.T) {
	m, err := kiss.ParseString(twins)
	if err != nil {
		t.Fatal(err)
	}
	red, names, err := Equivalent(m)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumStates() != 2 {
		t.Fatalf("states = %d, want 2 (b ≡ c):\n%s", red.NumStates(), red)
	}
	if names["b"] != names["c"] {
		t.Fatalf("b and c must share a representative: %v", names)
	}
	if names["a"] == names["b"] {
		t.Fatal("a must stay separate")
	}
	if err := red.Validate(); err != nil {
		t.Fatal(err)
	}
}

// distinct: b and c differ in output on input 0.
const distinct = `
.i 1
.o 1
0 a b 0
1 a c 0
0 b a 1
1 b b 0
0 c a 0
1 c c 0
`

func TestEquivalentKeepsDistinct(t *testing.T) {
	m, err := kiss.ParseString(distinct)
	if err != nil {
		t.Fatal(err)
	}
	red, _, err := Equivalent(m)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumStates() != 3 {
		t.Fatalf("states = %d, want 3:\n%s", red.NumStates(), red)
	}
}

// chained: b ≡ c only if d ≡ e (implied pair), which holds.
const chained = `
.i 1
.o 1
0 b d 1
1 b b 0
0 c e 1
1 c c 0
0 d b 0
1 d d 1
0 e c 0
1 e e 1
`

func TestEquivalentImpliedPairs(t *testing.T) {
	m, err := kiss.ParseString(chained)
	if err != nil {
		t.Fatal(err)
	}
	red, names, err := Equivalent(m)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumStates() != 2 {
		t.Fatalf("states = %d, want 2 ({b,c} and {d,e}):\n%s", red.NumStates(), red)
	}
	if names["b"] != names["c"] || names["d"] != names["e"] {
		t.Fatalf("classes wrong: %v", names)
	}
	// The reduced machine must still be completely specified.
	if !IsCompletelySpecified(red) {
		t.Fatal("reduction must preserve complete specification")
	}
}

// brokenChain: like chained but d and e now differ, so b/c cannot merge
// either (their implied pair is incompatible).
const brokenChain = `
.i 1
.o 1
0 b d 1
1 b b 0
0 c e 1
1 c c 0
0 d b 0
1 d d 1
0 e c 1
1 e e 1
`

func TestEquivalentImpliedConflictPropagates(t *testing.T) {
	m, err := kiss.ParseString(brokenChain)
	if err != nil {
		t.Fatal(err)
	}
	red, _, err := Equivalent(m)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumStates() != 4 {
		t.Fatalf("states = %d, want 4:\n%s", red.NumStates(), red)
	}
}

func TestEquivalentRejectsPartial(t *testing.T) {
	m, err := kiss.ParseString(".i 1\n.o 1\n0 a b -\n1 a a 0\n0 b a 1\n1 b b 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Equivalent(m); err == nil {
		t.Fatal("partial machine must be rejected by Equivalent")
	}
}

// partialTwins: b and c compatible ('-' vs '1'), aligned rows.
const partialTwins = `
.i 1
.o 1
0 a b 0
1 a c 0
0 b a -
1 b b 0
0 c a 1
1 c c 0
`

func TestCompatiblePairsAndReduce(t *testing.T) {
	m, err := kiss.ParseString(partialTwins)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := CompatiblePairs(m)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range pairs {
		if p == [2]string{"b", "c"} {
			found = true
		}
	}
	if !found {
		t.Fatalf("b,c must be compatible; pairs = %v", pairs)
	}
	red, names, err := ReduceCompatible(m)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumStates() != 2 || names["b"] != names["c"] {
		t.Fatalf("reduction wrong: %d states, %v\n%s", red.NumStates(), names, red)
	}
	// The merged row must resolve '-' against the specified '1'.
	rep := names["b"]
	for _, tr := range red.TransitionsFrom(rep) {
		if tr.Input == "0" && tr.Output != "1" {
			t.Fatalf("merged output = %q, want 1", tr.Output)
		}
	}
}

func TestReduceCompatibleKeepsConflicting(t *testing.T) {
	m, err := kiss.ParseString(distinct)
	if err != nil {
		t.Fatal(err)
	}
	red, _, err := ReduceCompatible(m)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumStates() != 3 {
		t.Fatalf("states = %d, want 3", red.NumStates())
	}
}

// TestReduceBenchmarkThenAssign: the reduced machine flows through the
// state-assignment tool and is never larger than the original.
func TestReduceBenchmarkThenAssign(t *testing.T) {
	spec, _ := benchgen.ByName("ex5")
	m := benchgen.Generate(spec)
	red, names, err := ReduceCompatible(m)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumStates() > m.NumStates() {
		t.Fatal("reduction grew the machine")
	}
	if len(names) != m.NumStates() {
		t.Fatal("name map incomplete")
	}
	rep, err := stassign.Assign(red, stassign.Options{Encoder: stassign.Picola})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Products <= 0 {
		t.Fatal("assignment of the reduced machine failed")
	}
}
