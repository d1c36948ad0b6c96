package analysis

import (
	"sort"
	"testing"
)

// progOf builds the whole-program context over one fixture package.
func progOf(t *testing.T, name string) (*Program, *Package) {
	t.Helper()
	pkg := loadFixture(t, name)
	return BuildProgram([]*Package{pkg}), pkg
}

// funcNamed resolves a fixture function by its diagnostic name.
func funcNamed(t *testing.T, prog *Program, name string) *Func {
	t.Helper()
	for _, fn := range prog.funcList {
		if fn.Name() == name {
			return fn
		}
	}
	t.Fatalf("function %s not found in program", name)
	return nil
}

func TestCallGraphEdges(t *testing.T) {
	prog, _ := progOf(t, "callgraph")

	// Static call: one exact edge to the declared function.
	static := funcNamed(t, prog, "Static")
	if len(static.Out) != 1 {
		t.Fatalf("Static: want 1 edge, got %d", len(static.Out))
	}
	if e := static.Out[0]; e.Kind != EdgeStatic || e.Callee == nil || e.Callee.Name() != "helper" {
		t.Errorf("Static: want static edge to helper, got %v -> %v", e.Kind, e.Callee)
	}

	// Concrete method call: one method edge.
	method := funcNamed(t, prog, "Method")
	if len(method.Out) != 1 {
		t.Fatalf("Method: want 1 edge, got %d", len(method.Out))
	}
	if e := method.Out[0]; e.Kind != EdgeMethod || e.Callee == nil || e.Callee.Name() != "A.Do" {
		t.Errorf("Method: want method edge to A.Do, got %v -> %v", e.Kind, e.Callee)
	}

	// Interface call: bounded candidates, one per implementing type.
	iface := funcNamed(t, prog, "Iface")
	var callees []string
	for _, e := range iface.Out {
		if e.Kind != EdgeInterface {
			t.Errorf("Iface: want interface edges, got %v", e.Kind)
		}
		callees = append(callees, e.Callee.Name())
	}
	sort.Strings(callees)
	if len(callees) != 2 || callees[0] != "A.Do" || callees[1] != "B.Do" {
		t.Errorf("Iface: want candidates [A.Do B.Do], got %v", callees)
	}

	// Func-value call: dynamic, no callee.
	dyn := funcNamed(t, prog, "Dyn")
	if len(dyn.Out) != 1 || dyn.Out[0].Kind != EdgeDynamic || dyn.Out[0].Callee != nil {
		t.Errorf("Dyn: want one dynamic edge with nil callee, got %v", dyn.Out)
	}

	// Reverse edges: helper knows its caller.
	helper := funcNamed(t, prog, "helper")
	if len(helper.In) != 1 || helper.In[0].Caller != static {
		t.Errorf("helper: want one incoming edge from Static, got %v", helper.In)
	}

	// Hot annotation detection.
	if !funcNamed(t, prog, "Hot").Hot {
		t.Error("Hot: //picola:hot annotation not detected")
	}
	if static.Hot {
		t.Error("Static: spurious hot annotation")
	}
}

// TestSummaries spot-checks the fixpoint products the analyzers consume.
func TestSummaries(t *testing.T) {
	prog, _ := progOf(t, "hotalloc")
	// Direct allocation is summarized...
	if s := funcNamed(t, prog, "allocHelper").summary; !s.Allocates {
		t.Error("allocHelper: want Allocates=true")
	}
	// ...and propagates one frame up through a static edge.
	if s := funcNamed(t, prog, "midHelper").summary; !s.Allocates {
		t.Error("midHelper: want Allocates=true via propagation")
	}
	// Hot functions never export the bit (their sites are reported at
	// their own declaration instead of cascading to callers).
	if s := funcNamed(t, prog, "BadMake").summary; s.Allocates {
		t.Error("BadMake: hot functions must not export Allocates")
	}

	tprog, _ := progOf(t, "dettaint")
	// keysOf's order taint is visible in its result summary, which is
	// how BadDeep's return gets flagged.
	s := funcNamed(t, tprog, "keysOf").summary
	if len(s.Results) != 1 || s.Results[0].Kinds&TaintOrder == 0 {
		t.Errorf("keysOf: want order-tainted result summary, got %+v", s.Results)
	}
	// GoodKeys sorts: the summary must be clean.
	s = funcNamed(t, tprog, "GoodKeys").summary
	if len(s.Results) != 1 || s.Results[0].Kinds != 0 {
		t.Errorf("GoodKeys: want clean result summary, got %+v", s.Results)
	}

	lprog, _ := progOf(t, "lockcheck")
	// Inc's transitive lock set names the mutex field, which is how
	// BadDouble's re-entry is caught.
	if s := funcNamed(t, lprog, "counter.Inc").summary; len(s.TransLocks) != 1 {
		t.Errorf("counter.Inc: want one transitive lock, got %d", len(s.TransLocks))
	}
}

func TestDettaintFixture(t *testing.T)  { checkFixture(t, Dettaint) }
func TestLockcheckFixture(t *testing.T) { checkFixture(t, Lockcheck) }
func TestLeakcheckFixture(t *testing.T) { checkFixture(t, Leakcheck) }
func TestHotallocFixture(t *testing.T)  { checkFixture(t, Hotalloc) }
