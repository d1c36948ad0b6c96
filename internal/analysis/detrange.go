package analysis

import (
	"go/ast"
	"go/types"
)

// DeterministicPackages are the pipeline stages whose output feeds the
// paper's tables: any order dependence here (map iteration, unsorted
// set walks) silently changes cube counts between runs. detrange flags
// every range-over-map in these packages.
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

// Detrange flags `for ... range m` over a map in a deterministic
// package. The one built-in exemption is the key-collection idiom
//
//	for k := range m { keys = append(keys, k) }
//
// whose result is expected to be sorted before use (order-insensitive
// loops — pure counting, set union — carry a lint:ignore justification
// instead).
var Detrange = &Analyzer{
	Name: "detrange",
	Doc:  "range over a map in an output-producing package: iteration order is randomized per range",
	Run:  runDetrange,
}

func runDetrange(p *Pass) []Diagnostic {
	if !DeterministicPackages[p.ImportPath] && !isTestdataPkg(p.ImportPath) {
		return nil
	}
	var out []Diagnostic
	inspect(p.Files, func(n ast.Node, _ []ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if isKeyCollect(rs) {
			return true
		}
		out = append(out, Diagnostic{
			Pos:      p.Fset.Position(rs.Pos()),
			Analyzer: "detrange",
			Message:  "map iteration order is non-deterministic here; collect the keys and sort before ranging",
		})
		return true
	})
	return out
}

// isKeyCollect matches `for k := range m { s = append(s, k) }` — the
// sorted-iteration prologue.
func isKeyCollect(rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if v, ok := rs.Value.(*ast.Ident); rs.Value != nil && (!ok || v.Name != "_") {
		return false
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	lhs, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok || dst.Name != lhs.Name {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}
