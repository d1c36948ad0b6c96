// Package statemin implements state reduction for KISS2 machines: the
// classical pair-chart analysis (compatible / incompatible state pairs via
// iterated implication marking, at input-cube granularity) and
// ReduceCompatible, a conservative merge of compatible states for
// incompletely specified machines, restricted to states with aligned
// input-cube structure so the merged transition table stays a valid
// deterministic KISS2 machine. The tests also run the chart under the
// equality predicate: the textbook equivalence reduction of completely
// specified machines.
//
// State reduction precedes state assignment in the classical flow; the
// stassign tool accepts reduced machines directly.
package statemin

import (
	"fmt"
	"sort"

	"picola/internal/kiss"
)

// pairIndex flattens an unordered state pair (i < j) to an index.
func pairIndex(i, j, n int) int {
	if i > j {
		i, j = j, i
	}
	return i*n + j
}

// chart is the computed pair chart.
type chart struct {
	n int
	// incompatible[pairIndex] under the chosen row-comparison predicate.
	incompatible []bool
	// implied[pairIndex] lists the next-state pairs forced by overlapping
	// rows (excluding identical and unspecified targets).
	implied [][][2]int
}

// buildChart runs the iterated marking algorithm. conflict reports
// whether two output cubes clash; for compatibility that is 0-vs-1 at
// some position, for equality any difference.
func buildChart(m *kiss.FSM, conflict func(a, b string) bool) *chart {
	n := m.NumStates()
	ch := &chart{n: n, incompatible: make([]bool, n*n), implied: make([][][2]int, n*n)}
	rows := make([][]kiss.Transition, n)
	for i, st := range m.States {
		rows[i] = m.TransitionsFrom(st)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pi := pairIndex(i, j, n)
			for _, ra := range rows[i] {
				for _, rb := range rows[j] {
					if !inputsIntersect(ra.Input, rb.Input) {
						continue
					}
					if conflict(ra.Output, rb.Output) {
						ch.incompatible[pi] = true
					}
					if ra.To != "*" && rb.To != "*" {
						a, b := m.StateIndex(ra.To), m.StateIndex(rb.To)
						if a != b {
							ch.implied[pi] = append(ch.implied[pi], [2]int{a, b})
						}
					}
				}
			}
		}
	}
	// Propagate: a pair implying an incompatible pair is incompatible.
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pi := pairIndex(i, j, n)
				if ch.incompatible[pi] {
					continue
				}
				for _, im := range ch.implied[pi] {
					if ch.incompatible[pairIndex(im[0], im[1], n)] {
						ch.incompatible[pi] = true
						changed = true
						break
					}
				}
			}
		}
	}
	return ch
}

func inputsIntersect(a, b string) bool {
	for i := range a {
		if a[i] != '-' && b[i] != '-' && a[i] != b[i] {
			return false
		}
	}
	return true
}

// outputsConflict reports a hard 0-vs-1 clash (compatibility predicate).
func outputsConflict(a, b string) bool {
	for i := range a {
		if (a[i] == '0' && b[i] == '1') || (a[i] == '1' && b[i] == '0') {
			return true
		}
	}
	return false
}

// ReduceCompatible reduces an incompletely specified machine by greedily
// merging closed sets of compatible states whose rows have identical
// input-cube structure (alignment keeps the merged table deterministic).
// The returned map sends every state to its class representative.
func ReduceCompatible(m *kiss.FSM) (*kiss.FSM, map[string]string, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	ch := buildChart(m, outputsConflict)
	aligned := func(i, j int) bool {
		ra := m.TransitionsFrom(m.States[i])
		rb := m.TransitionsFrom(m.States[j])
		if len(ra) != len(rb) {
			return false
		}
		as := make([]string, len(ra))
		bs := make([]string, len(rb))
		for k := range ra {
			as[k] = ra[k].Input
			bs[k] = rb[k].Input
		}
		sort.Strings(as)
		sort.Strings(bs)
		for k := range as {
			if as[k] != bs[k] {
				return false
			}
		}
		return true
	}
	return mergeByChart(m, ch, aligned)
}

// mergeByChart unions states along unmarked chart pairs (optionally
// restricted by an alignment predicate), closing each union over the
// implied pairs, then rebuilds the machine.
func mergeByChart(m *kiss.FSM, ch *chart, aligned func(i, j int) bool) (*kiss.FSM, map[string]string, error) {
	n := ch.n
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	classOK := func(members []int) bool {
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				if ch.incompatible[pairIndex(members[a], members[b], n)] {
					return false
				}
				if aligned != nil && !aligned(members[a], members[b]) {
					return false
				}
			}
		}
		return true
	}
	members := func(root int) []int {
		var out []int
		for i := 0; i < n; i++ {
			if find(i) == root {
				out = append(out, i)
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if find(i) == find(j) {
				continue
			}
			if ch.incompatible[pairIndex(i, j, n)] {
				continue
			}
			if aligned != nil && !aligned(i, j) {
				continue
			}
			// Tentatively close the union over implied pairs.
			trial := append([]int(nil), parent...)
			restore := func() { copy(parent, trial) }
			queue := [][2]int{{i, j}}
			ok := true
			for len(queue) > 0 && ok {
				pr := queue[0]
				queue = queue[1:]
				ra, rb := find(pr[0]), find(pr[1])
				if ra == rb {
					continue
				}
				if ch.incompatible[pairIndex(pr[0], pr[1], n)] {
					ok = false
					break
				}
				if aligned != nil && !aligned(pr[0], pr[1]) {
					ok = false
					break
				}
				parent[rb] = ra
				queue = append(queue, ch.implied[pairIndex(pr[0], pr[1], n)]...)
			}
			if ok {
				// Validate the resulting classes pairwise.
				seen := map[int]bool{}
				for s := 0; s < n && ok; s++ {
					r := find(s)
					if seen[r] {
						continue
					}
					seen[r] = true
					if !classOK(members(r)) {
						ok = false
					}
				}
			}
			if !ok {
				restore()
			}
		}
	}
	// Representative of each class: its smallest member index.
	repOf := make(map[int]int)
	for i := 0; i < n; i++ {
		r := find(i)
		if cur, ok := repOf[r]; !ok || i < cur {
			repOf[r] = i
		}
	}
	nameMap := make(map[string]string, n)
	for i := 0; i < n; i++ {
		nameMap[m.States[i]] = m.States[repOf[find(i)]]
	}
	out := &kiss.FSM{
		Name:       m.Name,
		NumInputs:  m.NumInputs,
		NumOutputs: m.NumOutputs,
	}
	if rs := m.ResetState(); rs != "" {
		out.Reset = nameMap[rs]
	}
	emitted := map[string]bool{}
	// Emit, per class, the representative's rows with merged outputs from
	// aligned members (a '-' resolved by any member that specifies the
	// bit) and next states mapped to representatives.
	for i := 0; i < n; i++ {
		repName := nameMap[m.States[i]]
		if emitted[repName] {
			continue
		}
		emitted[repName] = true
		cls := members(find(i))
		base := m.TransitionsFrom(m.States[repOf[find(i)]])
		for _, t := range base {
			outRow := kiss.Transition{Input: t.Input, From: repName}
			to := t.To
			outputs := []byte(t.Output)
			// Merge aligned members' matching rows.
			for _, other := range cls {
				if m.States[other] == m.States[repOf[find(i)]] {
					continue
				}
				for _, ot := range m.TransitionsFrom(m.States[other]) {
					if ot.Input != t.Input {
						continue
					}
					if to == "*" {
						to = ot.To
					}
					for k := 0; k < len(outputs); k++ {
						if outputs[k] == '-' && ot.Output[k] != '-' {
							outputs[k] = ot.Output[k]
						}
					}
				}
			}
			if to == "*" {
				outRow.To = "*"
			} else {
				outRow.To = nameMap[to]
			}
			outRow.Output = string(outputs)
			out.Transitions = append(out.Transitions, outRow)
		}
	}
	// Register states in representative order of first use.
	seenState := map[string]bool{}
	for _, t := range out.Transitions {
		for _, s := range []string{t.From, t.To} {
			if s != "*" && !seenState[s] {
				seenState[s] = true
				out.States = append(out.States, s)
			}
		}
	}
	if out.Reset != "" && !seenState[out.Reset] {
		out.States = append(out.States, out.Reset)
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("statemin: internal: reduced machine invalid: %w", err)
	}
	return out, nameMap, nil
}
