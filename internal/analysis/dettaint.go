package analysis

import (
	"go/types"
)

// DeterministicPackages are the pipeline stages whose output feeds the
// paper's tables: any order dependence here (map iteration, unsorted
// set walks) silently changes cube counts between runs. dettaint holds
// the values these packages emit to that rule.
var DeterministicPackages = map[string]bool{
	"picola/internal/core":     true,
	"picola/internal/espresso": true,
	"picola/internal/eval":     true,
	"picola/internal/cover":    true,
	"picola/internal/exact":    true,
	"picola/internal/stassign": true,
	"picola/internal/symbolic": true,
	"picola/internal/report":   true,
	"picola/internal/face":     true,
}

// Dettaint is the interprocedural determinism-taint analyzer: in the
// deterministic package set, no value returned by an exported function
// — or stored through one of its pointer/slice/map parameters — may
// depend on a nondeterminism source: map iteration order, the wall
// clock, the process-global math/rand, pointer formatting (%p), or
// goroutine completion order. Taint flows through module-internal call
// chains via the fixpoint summaries, so a private helper that ranges a
// map deep below an exported entry point is caught at the entry point's
// return.
//
// It is the module's one map-order rule: a map range is a finding only
// when (to the engine's flow-insensitive approximation) its unsorted
// order reaches an emitted value, so a loop that collects a map's
// entries and sorts them before use needs no directive. Sorting
// sanitizes order taint; wall-clock values may flow into designated
// timing channels (time.Time/time.Duration results and fields, or
// fields named like measurements: Wall*, Dur*, *NS, *MS, *Time, ...),
// which is how the observability layer reports wall time without
// tripping the gate.
var Dettaint = &Analyzer{
	Name: "dettaint",
	Doc:  "nondeterminism (map order, clock, global rand, %p, goroutine order) flows into a value emitted by a deterministic package",
	Run:  runDettaint,
}

func runDettaint(p *Pass) []Diagnostic {
	if !DeterministicPackages[p.ImportPath] && !isTestdataPkg(p.ImportPath) {
		return nil
	}
	var out []Diagnostic
	for _, fn := range p.Prog.funcList {
		if fn.Pkg.ImportPath != p.ImportPath || !isEmissionFunc(fn) {
			continue
		}
		for _, site := range fn.summary.taintSites {
			verb := "returned"
			if site.store {
				verb = "stored through a parameter"
			}
			out = append(out, Diagnostic{
				Pos:      p.Fset.Position(site.pos),
				Analyzer: "dettaint",
				Message: "value " + verb + " by exported " + fn.Name() +
					" may depend on " + site.kinds.String() + " (" + site.what +
					"); sort, seed, or route through a timing channel",
			})
		}
	}
	return out
}

// isEmissionFunc reports whether a function's outputs count as emitted
// values: exported functions and exported methods (the package API
// surface the tables are computed through).
func isEmissionFunc(fn *Func) bool {
	if !fn.Obj.Exported() {
		return false
	}
	if recv := fn.Obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok && !named.Obj().Exported() {
			return false // method of an unexported type is not API surface
		}
	}
	return true
}
