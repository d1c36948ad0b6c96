package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The determinism taint engine: a flow-insensitive, object-granular
// dataflow over one function body, iterated to a local fixpoint and fed
// the callees' interprocedural summaries. It deliberately trades
// precision for predictability — no control-flow sensitivity, no field
// sensitivity (a tainted field taints its whole container object) —
// because its verdicts gate CI: every rule must be explainable in one
// sentence and overridable with a justified lint:ignore.
//
// Taint sources (the nondeterminism inventory from DESIGN.md §7/§12):
// map iteration order, the process wall clock, the global math/rand,
// pointer formatting (%p), and goroutine scheduling order (multi-case
// select). Sorting is the sanitizer for order taint: an object that is
// ever passed to sort.*/slices.Sort* never carries order taint.
// Wall-clock taint is allowed to flow into designated timing channels:
// struct fields of type time.Time/time.Duration or whose name reads as
// a timing field (Wall*, *NS, *MS, Dur*, *Time, ...), and results of
// those types — measurements are nondeterministic by design.

// TaintKind is a bitmask of nondeterminism source categories.
type TaintKind uint8

const (
	// TaintOrder marks values dependent on map iteration order.
	TaintOrder TaintKind = 1 << iota
	// TaintClock marks values derived from the process wall clock.
	TaintClock
	// TaintRand marks values drawn from the process-global math/rand.
	TaintRand
	// TaintPtr marks values derived from pointer formatting (%p).
	TaintPtr
	// TaintSched marks values dependent on goroutine completion order.
	TaintSched
)

// String names the lowest set kind (diagnostics report one cause).
func (k TaintKind) String() string {
	switch {
	case k&TaintOrder != 0:
		return "map iteration order"
	case k&TaintClock != 0:
		return "the wall clock"
	case k&TaintRand != 0:
		return "the process-global math/rand"
	case k&TaintPtr != 0:
		return "pointer formatting"
	case k&TaintSched != 0:
		return "goroutine completion order"
	}
	return "nondeterminism"
}

// tval is the abstract value of the taint lattice: which source kinds
// may have influenced the value, which parameters of the enclosing
// function flow into it, and the first (lowest-position) source for the
// diagnostic message.
type tval struct {
	kinds  TaintKind
	params uint64
	src    token.Pos
	what   string
}

func (a tval) merge(b tval) tval {
	out := tval{kinds: a.kinds | b.kinds, params: a.params | b.params}
	switch {
	case a.src == token.NoPos:
		out.src, out.what = b.src, b.what
	case b.src == token.NoPos || a.src <= b.src:
		out.src, out.what = a.src, a.what
	default:
		out.src, out.what = b.src, b.what
	}
	return out
}

func (a tval) eq(b tval) bool {
	return a.kinds == b.kinds && a.params == b.params
}

// taintSite is one potential dettaint diagnostic recorded during body
// analysis; the analyzer decides which sites are reportable.
type taintSite struct {
	pos   token.Pos
	kinds TaintKind
	src   token.Pos
	what  string
	// store is true for writes through a parameter (out-parameter
	// escape), false for tainted return values.
	store bool
}

// bodyTaint analyzes one declared function.
type bodyTaint struct {
	prog      *Program
	fn        *Func
	info      *types.Info
	params    map[types.Object]int
	vals      map[types.Object]tval
	sanitized map[types.Object]bool
	results   []tval
	sites     []taintSite
	changed   bool
}

// analyzeTaint runs the local fixpoint and returns the function's
// result summary plus the candidate diagnostic sites.
func analyzeTaint(prog *Program, fn *Func) ([]ResultTaint, []taintSite) {
	bt := &bodyTaint{
		prog:      prog,
		fn:        fn,
		info:      fn.Pkg.Info,
		params:    map[types.Object]int{},
		vals:      map[types.Object]tval{},
		sanitized: map[types.Object]bool{},
	}
	sig := fn.Obj.Type().(*types.Signature)
	idx := 0
	if recv := sig.Recv(); recv != nil {
		bt.params[recv] = idx
		idx++
	}
	for i := 0; i < sig.Params().Len(); i++ {
		bt.params[sig.Params().At(i)] = idx
		idx++
	}
	bt.results = make([]tval, sig.Results().Len())
	bt.collectSanitized(fn.Decl.Body)

	for round := 0; round < 24; round++ {
		bt.changed = false
		bt.sites = bt.sites[:0]
		for i := range bt.results {
			bt.results[i] = tval{}
		}
		bt.walkStmts(fn.Decl.Body)
		bt.mergeNamedResults(sig)
		if !bt.changed {
			break
		}
	}

	out := make([]ResultTaint, len(bt.results))
	for i, r := range bt.results {
		if isTimingType(sig.Results().At(i).Type()) {
			r.kinds &^= TaintClock
		}
		out[i] = ResultTaint{Kinds: r.kinds, Params: r.params, Src: r.src, What: r.what}
	}
	return out, append([]taintSite(nil), bt.sites...)
}

// collectSanitized records every object that is ever sorted: order and
// scheduling taint never sticks to it. (Sorting cannot launder clock or
// rand content, so those kinds survive.)
func (bt *bodyTaint) collectSanitized(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := bt.info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		path := pn.Imported().Path()
		if path != "sort" && path != "slices" {
			return true
		}
		if !strings.HasPrefix(sel.Sel.Name, "Sort") && !isSortFunc(sel.Sel.Name) {
			return true
		}
		if obj := bt.objOfRoot(call.Args[0]); obj != nil {
			bt.sanitized[obj] = true
		}
		return true
	})
}

// isSortFunc lists the sort-package entry points that order their
// argument (membership beyond the Sort* prefix).
func isSortFunc(name string) bool {
	switch name {
	case "Ints", "Strings", "Float64s", "Slice", "SliceStable", "Stable":
		return true
	}
	return false
}

// objOfRoot resolves the base object of an lvalue-ish expression chain
// (a, a.b, a[i], *a, (a)).
func (bt *bodyTaint) objOfRoot(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := bt.info.Uses[x]; obj != nil {
				return obj
			}
			return bt.info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (bt *bodyTaint) setObj(obj types.Object, v tval) {
	if obj == nil {
		return
	}
	old := bt.vals[obj]
	merged := old.merge(v)
	if !merged.eq(old) {
		bt.vals[obj] = merged
		bt.changed = true
	}
}

func (bt *bodyTaint) valOf(obj types.Object) tval {
	if obj == nil {
		return tval{}
	}
	v := bt.vals[obj]
	if i, ok := bt.params[obj]; ok && i < 64 {
		v = v.merge(tval{params: 1 << uint(i)})
	}
	if bt.sanitized[obj] {
		v.kinds &^= TaintOrder | TaintSched
	}
	return v
}

// walkStmts dispatches the taint transfer functions over every
// statement in the subtree, including function literal bodies (captured
// variables keep their object identity there).
func (bt *bodyTaint) walkStmts(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			bt.assign(n)
		case *ast.ValueSpec:
			bt.valueSpec(n)
		case *ast.RangeStmt:
			bt.rangeStmt(n)
		case *ast.ReturnStmt:
			bt.returnStmt(n)
		case *ast.SelectStmt:
			bt.selectStmt(n)
		}
		return true
	})
}

func (bt *bodyTaint) assign(n *ast.AssignStmt) {
	if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
		// Tuple assignment from a call / map read / type assertion.
		vs := bt.evalMulti(n.Rhs[0], len(n.Lhs))
		for i, lhs := range n.Lhs {
			bt.assignTo(lhs, vs[i])
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i < len(n.Rhs) {
			bt.assignTo(lhs, bt.eval(n.Rhs[i]))
		}
	}
}

func (bt *bodyTaint) valueSpec(n *ast.ValueSpec) {
	if len(n.Names) > 1 && len(n.Values) == 1 {
		vs := bt.evalMulti(n.Values[0], len(n.Names))
		for i, name := range n.Names {
			bt.setObj(bt.info.Defs[name], vs[i])
		}
		return
	}
	for i, name := range n.Names {
		if i < len(n.Values) {
			bt.setObj(bt.info.Defs[name], bt.eval(n.Values[i]))
		}
	}
}

// assignTo applies one store. Non-identifier destinations taint their
// root object; stores through parameters are recorded as escape sites.
func (bt *bodyTaint) assignTo(lhs ast.Expr, v tval) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := bt.info.Defs[x]
		if obj == nil {
			obj = bt.info.Uses[x]
		}
		bt.setObj(obj, v)
	case *ast.SelectorExpr:
		if f, ok := bt.info.Selections[x]; ok && isTimingField(f.Obj()) {
			return // designated timing channel: measurement, not output
		}
		bt.storeThrough(x.X, x.Pos(), v)
	case *ast.IndexExpr:
		bt.storeThrough(x.X, x.Pos(), v)
	case *ast.StarExpr:
		bt.storeThrough(x.X, x.Pos(), v)
	}
}

// storeThrough taints the container's root object and records an
// out-parameter escape when the root is a parameter.
func (bt *bodyTaint) storeThrough(container ast.Expr, pos token.Pos, v tval) {
	obj := bt.objOfRoot(container)
	bt.setObj(obj, v)
	if v.kinds == 0 || obj == nil {
		return
	}
	if _, isParam := bt.params[obj]; isParam {
		bt.sites = append(bt.sites, taintSite{
			pos: pos, kinds: v.kinds, src: v.src, what: v.what, store: true,
		})
	}
}

func (bt *bodyTaint) rangeStmt(n *ast.RangeStmt) {
	t := bt.info.TypeOf(n.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		// Non-map ranges propagate the ranged value's taint.
		v := bt.eval(n.X)
		if key, ok := n.Key.(*ast.Ident); ok {
			bt.setObj(bt.info.Defs[key], v)
		}
		if val, ok := n.Value.(*ast.Ident); ok {
			bt.setObj(bt.info.Defs[val], v)
		}
		return
	}
	src := tval{kinds: TaintOrder, src: n.Pos(), what: "map iteration at " + bt.posStr(n.Pos())}
	src = src.merge(bt.eval(n.X))
	if key, ok := n.Key.(*ast.Ident); ok {
		bt.setObj(bt.info.Defs[key], src)
	}
	if val, ok := n.Value.(*ast.Ident); ok {
		bt.setObj(bt.info.Defs[val], src)
	}
}

func (bt *bodyTaint) returnStmt(n *ast.ReturnStmt) {
	if len(n.Results) == 0 {
		return // naked return: named results merged at the end
	}
	if len(n.Results) == 1 && len(bt.results) > 1 {
		vs := bt.evalMulti(n.Results[0], len(bt.results))
		for i := range bt.results {
			bt.recordResult(i, n.Results[i%len(n.Results)].Pos(), vs[i])
		}
		return
	}
	for i, e := range n.Results {
		if i < len(bt.results) {
			bt.recordResult(i, e.Pos(), bt.eval(e))
		}
	}
}

func (bt *bodyTaint) recordResult(i int, pos token.Pos, v tval) {
	sig := bt.fn.Obj.Type().(*types.Signature)
	if isTimingType(sig.Results().At(i).Type()) {
		v.kinds &^= TaintClock
	}
	old := bt.results[i]
	bt.results[i] = old.merge(v)
	if !bt.results[i].eq(old) {
		bt.changed = true
	}
	if v.kinds != 0 {
		bt.sites = append(bt.sites, taintSite{pos: pos, kinds: v.kinds, src: v.src, what: v.what})
	}
}

// mergeNamedResults folds assignments to named results into the result
// summary (they reach the caller via naked returns and deferred writes).
func (bt *bodyTaint) mergeNamedResults(sig *types.Signature) {
	for i := 0; i < sig.Results().Len(); i++ {
		r := sig.Results().At(i)
		if r.Name() == "" {
			continue
		}
		if v := bt.vals[r]; v.kinds != 0 || v.params != 0 {
			if isTimingType(r.Type()) {
				v.kinds &^= TaintClock
			}
			old := bt.results[i]
			bt.results[i] = old.merge(v)
			if !bt.results[i].eq(old) {
				bt.changed = true
			}
			if v.kinds != 0 {
				bt.sites = append(bt.sites, taintSite{pos: r.Pos(), kinds: v.kinds, src: v.src, what: v.what})
			}
		}
	}
}

func (bt *bodyTaint) selectStmt(n *ast.SelectStmt) {
	cases := 0
	for _, c := range n.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			cases++
		}
	}
	if cases < 2 {
		return
	}
	src := tval{kinds: TaintSched, src: n.Pos(), what: "multi-case select at " + bt.posStr(n.Pos())}
	for _, c := range n.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if asg, ok := cc.Comm.(*ast.AssignStmt); ok {
			for _, lhs := range asg.Lhs {
				bt.assignTo(lhs, src)
			}
		}
	}
}

// eval computes the abstract value of one expression.
func (bt *bodyTaint) eval(e ast.Expr) tval {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := bt.info.Uses[x]
		if obj == nil {
			obj = bt.info.Defs[x]
		}
		if _, ok := obj.(*types.Var); !ok {
			if _, ok := obj.(*types.Const); !ok {
				return tval{} // funcs, types, packages carry no taint
			}
		}
		return bt.valOf(obj)
	case *ast.CallExpr:
		return bt.evalCall(x, 1)[0]
	case *ast.SelectorExpr:
		if _, ok := bt.info.Uses[x.Sel].(*types.Const); ok {
			return tval{}
		}
		if id, ok := x.X.(*ast.Ident); ok {
			if _, ok := bt.info.Uses[id].(*types.PkgName); ok {
				return tval{} // qualified identifier
			}
		}
		return bt.eval(x.X)
	case *ast.IndexExpr:
		return bt.eval(x.X).merge(bt.eval(x.Index))
	case *ast.SliceExpr:
		return bt.eval(x.X)
	case *ast.StarExpr:
		return bt.eval(x.X)
	case *ast.UnaryExpr:
		return bt.eval(x.X) // includes &x and <-ch
	case *ast.BinaryExpr:
		return bt.eval(x.X).merge(bt.eval(x.Y))
	case *ast.CompositeLit:
		var v tval
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					if f, ok := bt.info.Uses[id].(*types.Var); ok && isTimingField(f) {
						continue // timing channel field
					}
				}
				v = v.merge(bt.eval(kv.Value))
				continue
			}
			v = v.merge(bt.eval(el))
		}
		return v
	case *ast.TypeAssertExpr:
		return bt.eval(x.X)
	case *ast.FuncLit:
		return tval{} // opaque; calls through it are dynamic edges
	}
	return tval{}
}

// evalMulti evaluates an expression in a context expecting n values
// (tuple-returning call, map read with ok, type assertion with ok).
func (bt *bodyTaint) evalMulti(e ast.Expr, n int) []tval {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return bt.evalCall(call, n)
	}
	v := bt.eval(e)
	out := make([]tval, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// evalCall applies callee summaries (module functions), the external
// model (stdlib), or the identity (dynamic calls) to produce the
// call's n result values.
func (bt *bodyTaint) evalCall(call *ast.CallExpr, n int) []tval {
	out := make([]tval, n)
	if n == 0 {
		out = make([]tval, 1)
	}

	// Type conversion: propagate the operand.
	if tv, ok := bt.info.Types[call.Fun]; ok && tv.IsType() {
		var v tval
		for _, a := range call.Args {
			v = v.merge(bt.eval(a))
		}
		for i := range out {
			out[i] = v
		}
		return out
	}
	// Builtins: len/cap/make/new are deterministic; append and the rest
	// propagate their arguments.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := bt.info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "len", "cap", "make", "new", "delete", "clear", "panic", "recover", "print", "println":
				return out
			}
			var v tval
			for _, a := range call.Args {
				v = v.merge(bt.eval(a))
			}
			for i := range out {
				out[i] = v
			}
			return out
		}
	}

	// Receiver (if any) is argument 0 of the summary's param space.
	var argVals []tval
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := bt.info.Selections[sel]; isSel {
			argVals = append(argVals, bt.eval(sel.X))
		}
	}
	for _, a := range call.Args {
		argVals = append(argVals, bt.eval(a))
	}
	argAll := tval{}
	for _, v := range argVals {
		argAll = argAll.merge(v)
	}

	edges := bt.fn.callEdgesAt(call)
	if len(edges) == 0 {
		// Unresolved (conversion already handled): identity.
		for i := range out {
			out[i] = argAll
		}
		return out
	}
	for _, e := range edges {
		switch {
		case e.Callee != nil && e.Callee.summary != nil:
			s := e.Callee.summary
			for i := range out {
				if i >= len(s.Results) {
					break
				}
				rt := s.Results[i]
				v := tval{kinds: rt.Kinds, src: rt.Src, what: rt.What}
				for p := 0; p < len(argVals) && p < 64; p++ {
					if rt.Params&(1<<uint(p)) != 0 {
						v = v.merge(argVals[p])
					}
				}
				out[i] = out[i].merge(v)
			}
		case e.Target != nil:
			v := bt.externalCall(e.Target, call, argAll)
			for i := range out {
				out[i] = out[i].merge(v)
			}
		default:
			// Dynamic: taint-preserving identity over the arguments.
			for i := range out {
				out[i] = out[i].merge(argAll)
			}
		}
	}
	return out
}

// externalCall models calls into packages outside the program: the
// known nondeterminism sources plus argument-identity for everything
// else.
func (bt *bodyTaint) externalCall(target *types.Func, call *ast.CallExpr, argAll tval) tval {
	path := pkgPathOf(target)
	name := target.Name()
	pos := call.Pos()
	switch path {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return argAll.merge(tval{kinds: TaintClock, src: pos, what: "time." + name + " at " + bt.posStr(pos)})
		}
	case "math/rand", "math/rand/v2":
		sig := target.Type().(*types.Signature)
		if sig.Recv() == nil && !seedrandAllowed[name] {
			return argAll.merge(tval{kinds: TaintRand, src: pos, what: "rand." + name + " at " + bt.posStr(pos)})
		}
	case "fmt":
		if formatHasPtrVerb(call) {
			return argAll.merge(tval{kinds: TaintPtr, src: pos, what: "%p formatting at " + bt.posStr(pos)})
		}
	case "sort", "slices":
		return tval{} // ordering entry points; sanitization handled separately
	}
	return argAll
}

// formatHasPtrVerb reports whether a fmt call's constant format string
// contains the %p verb.
func formatHasPtrVerb(call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "%p") {
			return true
		}
	}
	return false
}

func (bt *bodyTaint) posStr(pos token.Pos) string {
	p := bt.fn.Pkg.Fset.Position(pos)
	return shortFilename(p.Filename) + ":" + itoa(p.Line)
}

// shortFilename keeps the last two path segments — enough to identify
// the file without leaking absolute build paths into messages (which
// must be stable across checkouts).
func shortFilename(name string) string {
	short := name
	for seps, i := 0, len(name)-1; i >= 0; i-- {
		if name[i] == '/' || name[i] == '\\' {
			seps++
			if seps == 2 {
				short = name[i+1:]
				break
			}
		}
	}
	return short
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// isTimingField reports whether a struct field is a designated timing
// channel: wall-clock measurements may be stored there without
// constituting a determinism leak.
func isTimingField(obj types.Object) bool {
	if obj == nil {
		return false
	}
	if isTimingType(obj.Type()) {
		return true
	}
	return isTimingName(obj.Name())
}

// isTimingName matches field names that read as timing measurements.
func isTimingName(name string) bool {
	l := strings.ToLower(name)
	for _, sub := range []string{"wall", "dur", "time", "elapsed", "latency", "deadline"} {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return strings.HasSuffix(l, "ns") || strings.HasSuffix(l, "ms")
}

// isTimingType reports time.Time / time.Duration (possibly pointer).
func isTimingType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return pkgPathOf(obj) == "time" && (obj.Name() == "Time" || obj.Name() == "Duration")
}
