package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer under the dettaint, lockcheck,
// leakcheck and hotalloc analyzers: a whole-program view of every
// function declared in the analyzed packages plus a call graph over
// them. Static calls and concrete method calls are resolved exactly
// through go/types; calls through an interface method are resolved
// *bounded* — an edge to every module type whose method set implements
// the interface — and calls through func values are recorded as dynamic
// edges with no callee (summaries treat them as taint-preserving
// identities and otherwise effect-free). The boundedness is deliberate:
// the framework stays stdlib-only and package-local in memory, and the
// escape hatches (lint:ignore, the baseline) absorb the imprecision.

// EdgeKind classifies how a call site was resolved.
type EdgeKind int

const (
	// EdgeStatic is a direct call of a declared function.
	EdgeStatic EdgeKind = iota
	// EdgeMethod is a call of a method on a concrete receiver type.
	EdgeMethod
	// EdgeInterface is one of the bounded candidate edges of a call
	// through an interface method: the callee is a module type's method
	// whose method set satisfies the interface.
	EdgeInterface
	// EdgeDynamic is a call through a func value; the callee is unknown
	// (nil) and summaries treat the call conservatively.
	EdgeDynamic
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeMethod:
		return "method"
	case EdgeInterface:
		return "interface"
	default:
		return "dynamic"
	}
}

// Edge is one resolved call site.
type Edge struct {
	Caller *Func
	// Callee is the module function called, nil for dynamic edges and
	// for calls into packages outside the program (stdlib).
	Callee *Func
	// Target is the called *types.Func even when it is not a module
	// function (stdlib calls); nil for dynamic edges.
	Target *types.Func
	Site   *ast.CallExpr
	Kind   EdgeKind
}

// Func is one declared module function or method.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Hot reports the //picola:hot annotation on the declaration: the
	// function claims the zero-steady-state-allocation contract that
	// hotalloc enforces (DESIGN.md §12).
	Hot bool
	// Out lists the function's call sites in source order.
	Out []*Edge
	// In lists the resolved call sites targeting this function.
	In []*Edge

	summary *Summary
}

// Name returns the diagnostic-friendly name (Recv.Method or Func).
func (f *Func) Name() string {
	if recv := f.Obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			return n.Obj().Name() + "." + f.Obj.Name()
		}
	}
	return f.Obj.Name()
}

// Program is the whole-program context shared by every Pass of one
// picolint run: all loaded packages, their functions, the call graph
// and the fixpoint summaries.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	// Funcs maps every declared module function to its node.
	Funcs map[*types.Func]*Func
	// funcList is Funcs in deterministic (position) order.
	funcList []*Func
	// namedTypes are the module's named (non-interface) types, the
	// candidate set for bounded interface-call resolution.
	namedTypes []*types.Named
	// WholeModule reports that the packages are the whole module, so a
	// WholeModule analyzer can judge them.
	WholeModule bool
	// referenced and ifaceByMethod are deadexport's indexes
	// (deadexport.go).
	referenced    map[*types.Func]bool
	ifaceByMethod map[string][]*types.Interface
}

// BuildProgram indexes the packages, resolves the call graph and
// computes the interprocedural summaries. The packages must come from
// one Loader (shared FileSet).
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Funcs: map[*types.Func]*Func{},
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	prog.Packages = append(prog.Packages, pkgs...)
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].ImportPath < prog.Packages[j].ImportPath
	})

	// Pass 1: collect declared functions and named types.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Func{Obj: obj, Decl: fd, Pkg: pkg, Hot: isHotDecl(fd)}
				prog.Funcs[obj] = fn
				prog.funcList = append(prog.funcList, fn)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			prog.namedTypes = append(prog.namedTypes, named)
		}
	}
	sort.Slice(prog.funcList, func(i, j int) bool {
		return prog.funcList[i].Obj.Pos() < prog.funcList[j].Obj.Pos()
	})
	sort.Slice(prog.namedTypes, func(i, j int) bool {
		return prog.namedTypes[i].Obj().Pos() < prog.namedTypes[j].Obj().Pos()
	})

	// Pass 2: resolve the call sites of every function body.
	for _, fn := range prog.funcList {
		prog.resolveCalls(fn)
	}
	computeSummaries(prog)
	prog.indexReferences()
	prog.indexInterfaces()
	return prog
}

// isHotDecl reports whether the declaration carries the //picola:hot
// annotation in its doc comment group.
func isHotDecl(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == "//picola:hot" {
			return true
		}
	}
	return false
}

// resolveCalls walks fn's body recording one Edge per call expression.
func (prog *Program) resolveCalls(fn *Func) {
	info := fn.Pkg.Info
	ast.Inspect(fn.Decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, e := range prog.resolveCall(fn, info, call) {
			fn.Out = append(fn.Out, e)
			if e.Callee != nil {
				e.Callee.In = append(e.Callee.In, e)
			}
		}
		return true
	})
}

// resolveCall classifies one call expression into zero or more edges.
// Builtin calls and type conversions yield none.
func (prog *Program) resolveCall(fn *Func, info *types.Info, call *ast.CallExpr) []*Edge {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return []*Edge{{Caller: fn, Callee: prog.Funcs[obj], Target: obj, Site: call, Kind: EdgeStatic}}
		case *types.Var:
			return []*Edge{{Caller: fn, Site: call, Kind: EdgeDynamic}}
		}
		return nil // builtin or type conversion
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			target, ok := sel.Obj().(*types.Func)
			if !ok {
				// Field of func type: dynamic.
				return []*Edge{{Caller: fn, Site: call, Kind: EdgeDynamic}}
			}
			recv := sel.Recv()
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				return prog.interfaceEdges(fn, call, iface, target)
			}
			return []*Edge{{Caller: fn, Callee: prog.Funcs[target], Target: target, Site: call, Kind: EdgeMethod}}
		}
		// Package-qualified call (pkg.F) or method expression use.
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return []*Edge{{Caller: fn, Callee: prog.Funcs[obj], Target: obj, Site: call, Kind: EdgeStatic}}
		}
		if _, ok := info.Uses[fun.Sel].(*types.Var); ok {
			return []*Edge{{Caller: fn, Site: call, Kind: EdgeDynamic}}
		}
		return nil
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is part of this function
		// for every analyzer walking the declaration; no edge needed.
		return nil
	default:
		if _, ok := info.Types[call.Fun]; ok && info.Types[call.Fun].IsType() {
			return nil // conversion
		}
		return []*Edge{{Caller: fn, Site: call, Kind: EdgeDynamic}}
	}
}

// interfaceEdges returns the bounded candidate set of an interface
// method call: one edge per module named type implementing the
// interface, targeting that type's concrete method.
func (prog *Program) interfaceEdges(fn *Func, call *ast.CallExpr, iface *types.Interface, decl *types.Func) []*Edge {
	var out []*Edge
	for _, named := range prog.namedTypes {
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, decl.Pkg(), decl.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		callee := prog.Funcs[m]
		if callee == nil {
			continue
		}
		out = append(out, &Edge{Caller: fn, Callee: callee, Target: m, Site: call, Kind: EdgeInterface})
	}
	if len(out) == 0 {
		// No module implementation in scope: keep a dynamic edge so the
		// call is still visible to summaries.
		out = append(out, &Edge{Caller: fn, Target: decl, Site: call, Kind: EdgeDynamic})
	}
	return out
}

// callEdgesAt returns the edges recorded for one call site.
func (fn *Func) callEdgesAt(call *ast.CallExpr) []*Edge {
	var out []*Edge
	for _, e := range fn.Out {
		if e.Site == call {
			out = append(out, e)
		}
	}
	return out
}
