package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deadexport flags an exported function or method that no non-test
// code in the module references. A reference is any use go/types
// records in a loaded package — a call, a method value, a function
// value — outside the function's own declaration, so a recursive call
// does not keep a function alive. Two kinds of declaration are exempt:
//
//   - a method that satisfies an interface (error, fmt.Stringer, or an
//     interface that a loaded package imports or writes out): a call
//     through the interface names no concrete method;
//   - the API of a public package (a non-main package outside every
//     internal/ directory), whose callers live outside the module.
//
// Only the whole module shows that nothing references a function, so
// the analyzer judges whole-module runs and the analyzer fixtures and
// skips every other run (Analyzer.WholeModule). A helper kept for other
// packages' tests carries a lint:ignore that names those tests.
var Deadexport = &Analyzer{
	Name:        "deadexport",
	Doc:         "exported function or method that no non-test code in the module references",
	Run:         runDeadexport,
	WholeModule: true,
}

func runDeadexport(p *Pass) []Diagnostic {
	if isPublicAPI(p.Pkg) {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || p.Prog.referenced[obj] {
				continue
			}
			what := "function"
			if fd.Recv != nil {
				if p.Prog.satisfiesInterface(obj) {
					continue
				}
				what = "method"
			}
			name := obj.Name()
			if fn := p.Prog.Funcs[obj]; fn != nil {
				name = fn.Name()
			}
			out = append(out, Diagnostic{
				Pos:      p.Fset.Position(fd.Name.Pos()),
				Analyzer: "deadexport",
				Message: "exported " + what + " " + name + " has no reference in non-test code; " +
					"delete it, move it into a _test.go file, or call its target directly",
			})
		}
	}
	return out
}

// isPublicAPI reports whether code outside the module can import pkg:
// it is not a main package and no path element is "internal".
func isPublicAPI(pkg *types.Package) bool {
	return pkg.Name() != "main" && !strings.Contains("/"+pkg.Path()+"/", "/internal/")
}

// indexReferences records, for deadexport, every function and method a
// loaded package references outside the referent's own declaration.
func (prog *Program) indexReferences() {
	prog.referenced = map[*types.Func]bool{}
	for _, pkg := range prog.Packages {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if decl := prog.Funcs[fn]; decl != nil && decl.Decl.Pos() <= id.Pos() && id.Pos() < decl.Decl.End() {
				continue // a recursive call
			}
			prog.referenced[fn] = true
		}
	}
}

// indexInterfaces records, for deadexport, the interfaces a module
// method may satisfy, by method name: error, fmt.Stringer, every named
// interface of a package that a loaded package imports (sort.Interface
// reaches its methods through sort.Sort), and every interface type a
// loaded package writes out (a field of type interface{ Flush() error },
// say).
func (prog *Program) indexInterfaces() {
	prog.ifaceByMethod = map[string][]*types.Interface{}
	added := map[*types.Interface]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || added[iface] {
			return
		}
		added[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			prog.ifaceByMethod[name] = append(prog.ifaceByMethod[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	str := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)
	add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String", str)}, nil))
	for _, pkg := range prog.Packages {
		for _, imp := range pkg.Types.Imports() {
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
}

// satisfiesInterface reports whether method m's receiver type, as a
// value or a pointer, implements an indexed interface that has m.
func (prog *Program) satisfiesInterface(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, iface := range prog.ifaceByMethod[m.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}
