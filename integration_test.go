package picola

import (
	"sort"
	"strings"
	"testing"

	"picola/internal/baseline/enc"
	"picola/internal/baseline/nova"
	"picola/internal/bdd"
	"picola/internal/benchgen"
	"picola/internal/core"
	"picola/internal/espresso"
	"picola/internal/eval"
	"picola/internal/kiss"
	"picola/internal/stassign"
	"picola/internal/symbolic"
)

// TestPipelineEndToEnd drives benchmark generation → constraint extraction
// → all three encoders → evaluation on a slice of the suite and checks the
// structural invariants every stage guarantees.
func TestPipelineEndToEnd(t *testing.T) {
	for _, name := range []string{"bbara", "opus", "dk14", "ex3"} {
		spec, ok := benchgen.ByName(name)
		if !ok {
			t.Fatalf("missing spec %s", name)
		}
		m := benchgen.Generate(spec)
		prob, implicants, err := symbolic.ExtractConstraints(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if implicants <= 0 || len(prob.Constraints) == 0 {
			t.Fatalf("%s: degenerate extraction", name)
		}

		pic, err := core.Encode(prob)
		if err != nil {
			t.Fatalf("%s picola: %v", name, err)
		}
		nov, err := nova.Encode(prob, nova.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s nova: %v", name, err)
		}
		en, err := enc.Encode(prob, enc.Options{Seed: 1, Budget: 5000})
		if err != nil {
			t.Fatalf("%s enc: %v", name, err)
		}
		for label, e := range map[string]interface{ Injective() bool }{
			"picola": pic.Encoding, "nova": nov, "enc": en.Encoding,
		} {
			if !e.Injective() {
				t.Fatalf("%s %s: duplicate codes", name, label)
			}
		}
		pc, err := eval.Evaluate(prob, pic.Encoding)
		if err != nil {
			t.Fatal(err)
		}
		// Every constraint costs at least one cube and satisfied ones
		// exactly one.
		for i, k := range pc.Cubes {
			if k < 1 {
				t.Fatalf("%s: constraint %d evaluates to %d cubes", name, i, k)
			}
			if pic.Encoding.Satisfied(prob.Constraints[i]) && k != 1 {
				t.Fatalf("%s: satisfied constraint %d costs %d cubes", name, i, k)
			}
		}
	}
}

// TestAssignmentImplementsMachine checks the central correctness property
// of the state-assignment tool on a generated benchmark: the minimized
// encoded cover is a verified implementation of the encoded function.
func TestAssignmentImplementsMachine(t *testing.T) {
	spec, _ := benchgen.ByName("dk14")
	m := benchgen.Generate(spec)
	for _, encName := range []stassign.Encoder{stassign.Picola, stassign.NovaIH} {
		rep, err := stassign.Assign(m, stassign.Options{Encoder: encName, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		d, on, dc, off, err := stassign.BuildEncoded(m, rep.Encoding)
		if err != nil {
			t.Fatal(err)
		}
		f := &espresso.Function{D: d, On: on, DC: dc, Off: off}
		min, err := espresso.Minimize(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := espresso.Verify(min, f); err != nil {
			t.Fatalf("%v: %v", encName, err)
		}
		if min.Len() != rep.Products {
			t.Fatalf("%v: reported %d products, re-minimized %d", encName, rep.Products, min.Len())
		}
	}
}

// TestEncodedMachineAgainstBDDOracle rebuilds the encoded machine's
// per-output functions as canonical BDDs and checks the minimized cover
// implements each output within its don't-care band: ON ⊆ min ⊆ ON ∪ DC.
// This validates the espresso result through a representation entirely
// disjoint from the cover algebra it was computed with.
func TestEncodedMachineAgainstBDDOracle(t *testing.T) {
	spec, _ := benchgen.ByName("bbara")
	m := benchgen.Generate(spec)
	rep, err := stassign.Assign(m, stassign.Options{Encoder: stassign.Picola})
	if err != nil {
		t.Fatal(err)
	}
	d, on, dc, _, err := stassign.BuildEncoded(m, rep.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	min, _, err := stassign.MinimizeEncoded(m, rep.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	inputs := m.NumInputs + rep.Encoding.NV
	no := d.Size(inputs)
	mgr := bdd.New(inputs)
	for o := 0; o < no; o++ {
		onF := mgr.FromOutputCover(on, inputs, o)
		dcF := mgr.FromOutputCover(dc, inputs, o)
		minF := mgr.FromOutputCover(min, inputs, o)
		// f → g is a tautology exactly when ite(f, g, 1) is.
		if mgr.Ite(onF, minF, bdd.True) != bdd.True {
			t.Fatalf("output %d: minimized cover misses ON points", o)
		}
		if mgr.Ite(minF, mgr.Or(onF, dcF), bdd.True) != bdd.True {
			t.Fatalf("output %d: minimized cover asserts outside ON ∪ DC", o)
		}
	}
}

// TestKISSRoundTripThroughPipeline: serializing a generated machine to
// KISS2 and re-parsing it must leave the whole pipeline's results
// unchanged.
func TestKISSRoundTripThroughPipeline(t *testing.T) {
	spec, _ := benchgen.ByName("lion9")
	m1 := benchgen.Generate(spec)
	m2, err := kiss.ParseString(m1.String())
	if err != nil {
		t.Fatal(err)
	}
	m2.Name = m1.Name
	p1, n1, err := symbolic.ExtractConstraints(m1)
	if err != nil {
		t.Fatal(err)
	}
	p2, n2, err := symbolic.ExtractConstraints(m2)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || len(p1.Constraints) != len(p2.Constraints) {
		t.Fatalf("round trip changed extraction: %d/%d vs %d/%d",
			n1, len(p1.Constraints), n2, len(p2.Constraints))
	}
	// KISS parsing discovers states in transition order, which may differ
	// from the generator's order, so compare constraints as sets of state
	// names.
	nameSet := func(names []string, members []int) string {
		out := make([]string, len(members))
		for i, m := range members {
			out[i] = names[m]
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	var s1, s2 []string
	for i := range p1.Constraints {
		s1 = append(s1, nameSet(p1.Names, p1.Constraints[i].Members()))
		s2 = append(s2, nameSet(p2.Names, p2.Constraints[i].Members()))
	}
	sort.Strings(s1)
	sort.Strings(s2)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("constraint sets differ after round trip:\n%v\nvs\n%v", s1, s2)
		}
	}
}

// TestDeterministicPipeline: two full runs produce identical encodings and
// identical costs — the tables in EXPERIMENTS.md are reproducible.
func TestDeterministicPipeline(t *testing.T) {
	spec, _ := benchgen.ByName("ex5")
	run := func() (string, int) {
		m := benchgen.Generate(spec)
		prob, _, err := symbolic.ExtractConstraints(m)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Encode(prob)
		if err != nil {
			t.Fatal(err)
		}
		c, err := eval.Evaluate(prob, r.Encoding)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for s := 0; s < prob.N(); s++ {
			sb.WriteString(r.Encoding.CodeString(s))
		}
		return sb.String(), c.Total
	}
	codes1, cost1 := run()
	codes2, cost2 := run()
	if codes1 != codes2 || cost1 != cost2 {
		t.Fatal("pipeline is not deterministic")
	}
}
