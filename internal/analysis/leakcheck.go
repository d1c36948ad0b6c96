package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Leakcheck flags goroutines started in internal/ packages that can
// outlive their spawner with no way to be stopped or joined. The daemon
// work (cmd/picolad) turns one-shot pipeline code into long-running
// request handlers; an unjoined goroutine that was harmless in a
// process that exits after one encode becomes a leak multiplied per
// request.
//
// A `go` statement is accepted when the analysis can see a lifecycle
// channel tying it back to its spawner:
//
//   - the goroutine body references a context.Context (cancellation),
//   - it calls Done on a sync.WaitGroup (joinable),
//   - it sends on or closes a channel, or receives from one (the usual
//     done-/result-channel handshake),
//   - it is a loop running under a select with a done/quit channel.
//
// Everything else is flagged. Intentionally process-lifetime goroutines
// (e.g. a metrics flusher) carry a lint:ignore justification.
var Leakcheck = &Analyzer{
	Name: "leakcheck",
	Doc:  "goroutine may outlive its spawner: no context, WaitGroup, or done channel ties it back",
	Run:  runLeakcheck,
}

func runLeakcheck(p *Pass) []Diagnostic {
	if !strings.Contains(p.ImportPath, "/internal/") && !isTestdataPkg(p.ImportPath) {
		return nil
	}
	var out []Diagnostic
	inspect(p.Files, func(n ast.Node, stack []ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if goroutineIsJoined(p.Info, g) {
			return true
		}
		out = append(out, Diagnostic{
			Pos:      p.Fset.Position(g.Pos()),
			Analyzer: "leakcheck",
			Message:  "goroutine may outlive its spawner; thread a context.Context, join it with a WaitGroup, or signal on a done channel",
		})
		return true
	})
	sortDiagnostics(out)
	return out
}

// goroutineIsJoined reports whether the spawned call has a visible
// lifecycle mechanism. For `go fn(args...)` with a named callee the
// arguments are inspected (a context or WaitGroup argument counts);
// for `go func(){...}()` the closure body is inspected.
func goroutineIsJoined(info *types.Info, g *ast.GoStmt) bool {
	// A context or WaitGroup handed to the callee counts, whatever the
	// callee is.
	for _, arg := range g.Call.Args {
		if t := info.TypeOf(arg); isContextType(t) || isWaitGroupType(t) {
			return true
		}
	}
	body := goroutineBody(g)
	if body == nil {
		// `go pkg.Fn()` with no lifecycle argument and no visible body:
		// conservatively accept method values on a receiver that could
		// hold state, but flag plain calls. A selector callee whose
		// receiver expression is a channel-bearing struct is beyond the
		// summary's reach, so the decision is purely syntactic: named
		// callees without a ctx/wg argument are flagged.
		return false
	}
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if t := info.TypeOf(x); isContextType(t) {
				joined = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Done" && isWaitGroupType(info.TypeOf(sel.X)) {
					joined = true
				}
			}
			// close(ch) signals completion to a receiver.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					joined = true
				}
			}
		case *ast.SendStmt:
			joined = true // result/done-channel handshake
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				joined = true // receives from a quit/work channel
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					joined = true // range over a channel ends when it closes
				}
			}
		}
		return !joined
	})
	return joined
}

// goroutineBody returns the statement body the goroutine runs, when it
// is visible at the spawn site: a func literal's body, directly or
// through a single conversion/paren.
func goroutineBody(g *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	return nil
}

func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && pkgPathOf(obj) == "context"
}

func isWaitGroupType(t types.Type) bool {
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
	return obj.Name() == "WaitGroup" && pkgPathOf(obj) == "sync"
}
