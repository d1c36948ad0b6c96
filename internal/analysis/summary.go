package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Per-function summaries: the unit of interprocedural reasoning. Each
// function gets (a) a taint summary — per result, the nondeterminism
// kinds it may carry plus the mask of parameters that flow into it, (b)
// an allocation summary — whether the steady-state path performs a heap
// allocation, and (c) a lock summary — the mutex fields it may acquire,
// directly and through static/method calls. Summaries are computed to a
// global fixpoint over the call graph (the lattice is finite: kind
// bits, param bits, a bool, and a bounded lock set), so taint and
// effects flow through arbitrarily deep module-internal call chains.

// ResultTaint is the taint summary of one function result.
type ResultTaint struct {
	// Kinds are the source categories the result may carry regardless
	// of the arguments.
	Kinds TaintKind
	// Params is the bitmask of parameters (receiver first) whose taint
	// propagates into this result.
	Params uint64
	// Src/What locate and describe the first source, for diagnostics.
	Src  token.Pos
	What string
}

// lockID identifies a lock for summary purposes: the declared mutex
// variable or field object. Identity is receiver-insensitive — two
// instances of the same struct share the ID — which is exactly the
// granularity the double-lock heuristic wants (locking x.mu while
// holding y.mu of the same field is at best suspicious self-similarity
// and at worst a reentrant deadlock).
type lockID *types.Var

// allocKind classifies one allocation site for hotalloc messages.
type allocKind int

const (
	allocMake allocKind = iota
	allocNew
	allocLit     // &T{...} or composite literal in escaping position
	allocAppend  // append to a fresh (non-reused) destination
	allocClosure // func literal
	allocFmt     // fmt.* call
	allocConv    // string<->[]byte/[]rune conversion
	allocCall    // call to a module function that allocates
)

func (k allocKind) String() string {
	switch k {
	case allocMake:
		return "make"
	case allocNew:
		return "new"
	case allocLit:
		return "composite literal escapes"
	case allocAppend:
		return "append may grow"
	case allocClosure:
		return "closure allocates"
	case allocFmt:
		return "fmt call allocates"
	case allocConv:
		return "conversion copies"
	default:
		return "callee allocates"
	}
}

// allocSite is one heap-allocation candidate inside a function body.
type allocSite struct {
	pos  token.Pos
	kind allocKind
	what string
	// callee is set for allocCall sites (the allocating module callee).
	callee *Func
}

// Summary is the interprocedural summary of one declared function.
type Summary struct {
	// Results holds one taint summary per function result.
	Results []ResultTaint
	// Allocates reports a steady-state heap allocation on some path:
	// directly, or through a non-hot module callee. Guarded growth
	// (`if cap(...) < n { buf = make(...) }`), appends into reused
	// receiver/parameter buffers, and error-path construction inside
	// return statements do not count — those are the sanctioned
	// amortized/cold shapes (DESIGN.md §12).
	Allocates bool
	// AllocPos/AllocWhat locate the first allocation for diagnostics.
	AllocPos  token.Pos
	AllocWhat string
	// Locks are the mutexes the body may acquire directly.
	Locks []lockID
	// TransLocks adds the locks of static/method callees, transitively.
	TransLocks []lockID

	// taintSites are dettaint's candidate diagnostics (tainted returns
	// and out-parameter stores).
	taintSites []taintSite
	// allocs are the function's own steady-state allocation sites
	// (already filtered of sanctioned shapes).
	allocs []allocSite
}

// computeSummaries runs the global fixpoint: local effects first, then
// rounds of taint/alloc/lock propagation until nothing changes.
func computeSummaries(prog *Program) {
	for _, fn := range prog.funcList {
		s := &Summary{}
		s.allocs = scanAllocs(fn)
		s.Allocates = len(s.allocs) > 0 && !fn.Hot
		if s.Allocates {
			s.AllocPos, s.AllocWhat = s.allocs[0].pos, s.allocs[0].what
		}
		s.Locks = scanLocks(fn)
		fn.summary = s
	}
	// Taint fixpoint. Monotone: kinds and params only grow.
	for round := 0; round < 32; round++ {
		changed := false
		for _, fn := range prog.funcList {
			results, sites := analyzeTaint(prog, fn)
			s := fn.summary
			if !sameResults(s.Results, results) {
				changed = true
			}
			s.Results = results
			s.taintSites = sites
		}
		if !changed {
			break
		}
	}
	// Allocation propagation through non-hot module callees: a hot
	// caller must not reach an allocating function however deep.
	for round := 0; round < 32; round++ {
		changed := false
		for _, fn := range prog.funcList {
			if fn.summary.Allocates || fn.Hot {
				continue
			}
			for _, e := range fn.Out {
				if e.Kind == EdgeDynamic || e.Kind == EdgeInterface || e.Callee == nil {
					continue
				}
				if cs := e.Callee.summary; cs.Allocates {
					fn.summary.Allocates = true
					fn.summary.AllocPos = e.Site.Pos()
					fn.summary.AllocWhat = "calls " + e.Callee.Name() + ", which allocates (" + cs.AllocWhat + ")"
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	// Transitive lock sets over static/method edges (interface and
	// dynamic edges are not followed — documented boundedness).
	for _, fn := range prog.funcList {
		seen := map[*Func]bool{}
		set := map[lockID]bool{}
		var walk func(f *Func)
		walk = func(f *Func) {
			if seen[f] {
				return
			}
			seen[f] = true
			for _, l := range f.summary.Locks {
				set[l] = true
			}
			for _, e := range f.Out {
				if (e.Kind == EdgeStatic || e.Kind == EdgeMethod) && e.Callee != nil {
					walk(e.Callee)
				}
			}
		}
		walk(fn)
		fn.summary.TransLocks = sortedLockIDs(set)
	}
}

func sameResults(a, b []ResultTaint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kinds != b[i].Kinds || a[i].Params != b[i].Params {
			return false
		}
	}
	return true
}

func sortedLockIDs(set map[lockID]bool) []lockID {
	out := make([]lockID, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		return (*types.Var)(out[i]).Pos() < (*types.Var)(out[j]).Pos()
	})
	return out
}

// scanLocks finds the mutexes a body may acquire directly.
func scanLocks(fn *Func) []lockID {
	set := map[lockID]bool{}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id := lockedMutex(fn.Pkg.Info, call, "Lock", "RLock"); id != nil {
			set[id] = true
		}
		return true
	})
	return sortedLockIDs(set)
}

// lockedMutex resolves a call of the form expr.mu.<method>() where mu
// is a sync.Mutex/RWMutex variable or field, returning the mutex's
// declared object (nil when the call is not a matching lock op).
func lockedMutex(info *types.Info, call *ast.CallExpr, methods ...string) lockID {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	match := false
	for _, m := range methods {
		if sel.Sel.Name == m {
			match = true
		}
	}
	if !match || !isSyncLocker(info.TypeOf(sel.X)) {
		return nil
	}
	// The mutex object: the final identifier of the receiver chain.
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// isSyncLocker reports whether t is (a pointer to) sync.Mutex or
// sync.RWMutex.
func isSyncLocker(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return pkgPathOf(obj) == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockName renders a lock ID for diagnostics: Type.field or the
// variable name.
func lockName(id lockID) string {
	v := (*types.Var)(id)
	if v.IsField() {
		// Best effort: the owning struct's name is not recorded on the
		// field object, so report package-qualified field name.
		return v.Name()
	}
	return v.Name()
}

// scanAllocs finds a function's steady-state allocation sites, already
// excluding the three sanctioned shapes:
//
//  1. capacity-guarded growth — the allocation sits under an if whose
//     condition reads cap() or len() (the amortized-grow idiom);
//  2. appends into a reused buffer — the destination's root is a field
//     (e.g. s.buf, ct.primes), which the pooling layer owns;
//  3. cold error construction — fmt/new/literal allocations inside a
//     return statement of a function whose last result is an error.
func scanAllocs(fn *Func) []allocSite {
	info := fn.Pkg.Info
	var out []allocSite
	errCold := fnReturnsError(fn)
	add := func(pos token.Pos, kind allocKind, what string, callee *Func) {
		out = append(out, allocSite{pos: pos, kind: kind, what: what, callee: callee})
	}
	var stack []ast.Node
	for _, n := range []ast.Node{fn.Decl.Body} {
		ast.Inspect(n, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch x := n.(type) {
			case *ast.CallExpr:
				scanAllocCall(fn, info, x, stack, errCold, add)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
						if !(errCold && underReturn(stack)) && !underCapGuard(stack) {
							add(x.Pos(), allocLit, "&composite literal escapes to the heap", nil)
						}
					}
				}
			case *ast.FuncLit:
				// A func literal allocates when it captures variables;
				// flag it unless it is immediately invoked or deferred
				// (go/defer/IIFE closures are control shapes, and hot
				// code has none once leakcheck/spanend pass).
				if !underCallOrDefer(stack) {
					add(x.Pos(), allocClosure, "func literal allocates a closure", nil)
				}
				return false // body scanned on its own terms below
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// scanAllocCall classifies the allocation behaviour of one call site.
func scanAllocCall(fn *Func, info *types.Info, call *ast.CallExpr, stack []ast.Node, errCold bool, add func(token.Pos, allocKind, string, *Func)) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: only string<->[]byte/[]rune copies.
		if isCopyConversion(info, call) && !underCapGuard(stack) && !(errCold && underReturn(stack)) {
			add(call.Pos(), allocConv, "string/byte-slice conversion copies", nil)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "make":
				if !underCapGuard(stack) && !(errCold && underReturn(stack)) {
					add(call.Pos(), allocMake, "make allocates", nil)
				}
			case "new":
				if !underCapGuard(stack) && !(errCold && underReturn(stack)) {
					add(call.Pos(), allocNew, "new allocates", nil)
				}
			case "append":
				if !underCapGuard(stack) && !appendToReusedBuffer(info, stack, call) {
					add(call.Pos(), allocAppend, "append to a fresh slice may allocate per call", nil)
				}
			}
			return
		}
	}
	// fmt calls allocate per call; exempt cold error construction.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				if !(errCold && underReturn(stack)) {
					add(call.Pos(), allocFmt, "fmt."+sel.Sel.Name+" allocates", nil)
				}
				return
			}
		}
	}
}

// fnReturnsError reports whether the function's last result is error.
func fnReturnsError(fn *Func) bool {
	res := fn.Obj.Type().(*types.Signature).Results()
	if res.Len() == 0 {
		return false
	}
	t := res.At(res.Len() - 1).Type()
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// underReturn reports whether the innermost statement context of the
// node on top of the stack is a return statement.
func underReturn(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ReturnStmt:
			return true
		case ast.Stmt:
			return false
		}
	}
	return false
}

// underCapGuard reports whether the node sits inside an if statement
// whose condition consults cap() or len() — the amortized-grow idiom
//
//	if cap(buf) < n { buf = make([]T, n) }
func underCapGuard(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
					guarded = true
				}
			}
			return true
		})
		if guarded {
			return true
		}
	}
	return false
}

// underCallOrDefer reports whether a func literal is immediately
// invoked, deferred, or launched (its enclosing node is a call, defer
// or go statement) rather than stored.
func underCallOrDefer(stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	switch p := stack[len(stack)-2].(type) {
	case *ast.CallExpr:
		return ast.Unparen(p.Fun) == stack[len(stack)-1]
	case *ast.DeferStmt, *ast.GoStmt:
		return true
	}
	return false
}

// appendToReusedBuffer reports whether an append's destination (the
// first argument) roots at a struct field — the reused-scratch shape
// (s.buf = append(s.buf, ...)) whose growth is amortized by pooling.
func appendToReusedBuffer(info *types.Info, stack []ast.Node, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	dst := ast.Unparen(call.Args[0])
	// Re-slicing a field (x.buf[:0]) keeps the reuse property.
	if sl, ok := dst.(*ast.SliceExpr); ok {
		dst = ast.Unparen(sl.X)
	}
	if sel, ok := dst.(*ast.SelectorExpr); ok {
		if f, ok := info.Selections[sel]; ok {
			if v, ok := f.Obj().(*types.Var); ok && v.IsField() {
				return true
			}
		}
	}
	return false
}

// isCopyConversion reports string([]byte), []byte(string), []rune
// conversions.
func isCopyConversion(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	to := info.TypeOf(call.Fun)
	from := info.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return false
	}
	return (isStringish(to) && isByteSlice(from)) || (isByteSlice(to) && isStringish(from))
}

func isStringish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
