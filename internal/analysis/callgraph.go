package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The interprocedural layer. A Program is the unit the contract analyzers
// (determinism v2, noalloc, clocksep) work against: every target package's
// functions indexed into one call graph, with per-function fact summaries
// (allocation behaviour, wall-clock taint) computed to a fixpoint before any
// analyzer runs.
//
// Functions are keyed by types.Func.FullName() rather than object identity:
// a target package sees its in-module dependencies through compiler export
// data, so the *types.Func for obs.StartTimer observed from internal/sim is
// a different object than the one from type-checking internal/obs itself.
// The full name ("(*pkg/path.Recv).Method" / "pkg/path.Func") is identical
// in both universes and unifies them.
//
// Call edges are resolved statically: package-level functions and methods
// on concrete receivers resolve to their one callee; calls through an
// interface resolve to every named type in the program whose method set
// implements that interface (class-hierarchy style); calls through plain
// func values stay unresolved and each analyzer treats them with its own
// conservatism (noalloc flags them, clock-reachability cannot follow them).

// A CallKind classifies how a call site's callee was resolved.
type CallKind int

const (
	// CallStatic resolved to exactly one function or concrete method.
	CallStatic CallKind = iota
	// CallIface resolved through an interface method to the in-program
	// implementations in Candidates (possibly none).
	CallIface
	// CallDynamic is a call through a func value — unresolvable.
	CallDynamic
)

// A CallSite is one resolved call expression inside a function body.
type CallSite struct {
	Pos  token.Pos
	Kind CallKind
	// Callee is the resolved function (CallStatic) or the interface method
	// (CallIface); nil for CallDynamic.
	Callee *types.Func
	// Candidates holds the FuncIDs of the in-program implementations of an
	// interface callee, sorted for deterministic diagnostics.
	Candidates []string
	// Amortized marks a call lexically inside a warm-up guard (see
	// warmUpGuard): it runs only while a reusable buffer is still cold.
	Amortized bool
}

// A FuncNode is one function in the program's call graph.
type FuncNode struct {
	ID    string // types.Func.FullName()
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Calls []*CallSite

	// Wallclock and Noalloc are the function's contract annotations
	// (nil when absent).
	Wallclock *Annotation
	Noalloc   *Annotation
}

// Name returns the function's name qualified with its receiver, without the
// package path — the form diagnostics use.
func (f *FuncNode) Name() string {
	if f.Decl.Recv != nil && len(f.Decl.Recv.List) > 0 {
		return recvString(f.Decl.Recv.List[0].Type) + "." + f.Decl.Name.Name
	}
	return f.Decl.Name.Name
}

func recvString(e ast.Expr) string {
	switch t := ast.Unparen(e).(type) {
	case *ast.StarExpr:
		return "(*" + recvString(t.X) + ")"
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return recvString(t.X)
	case *ast.IndexListExpr:
		return recvString(t.X)
	default:
		return "?"
	}
}

// A Program is the interprocedural view over every loaded target package.
type Program struct {
	Pkgs  []*Package
	Funcs map[string]*FuncNode

	// Whole reports that Pkgs is every package of the module, so a name no
	// package of Pkgs references is referenced by nothing in the module.
	Whole bool

	// order holds the functions in deterministic (load, file, position)
	// order so fixpoints and diagnostics never depend on map iteration.
	order []*FuncNode

	// pkgWallclock maps a package path to its package-level //lint:wallclock
	// annotation, when one is present in the package doc.
	pkgWallclock map[string]*Annotation

	// pkgClockfree maps a package path to its package-level //lint:clockfree
	// annotation: the clocksep analyzer bans every function in such a
	// package from reaching the wall clock.
	pkgClockfree map[string]*Annotation

	// named collects every named type defined by a target package, the
	// candidate set for interface-call resolution.
	named []*types.Named

	alloc *allocFacts
	clock *clockFacts
}

// FuncAt returns the program node for a declared function object (from any
// type-checking universe), or nil.
func (p *Program) FuncAt(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return p.Funcs[fn.FullName()]
}

// PkgWallclock returns the package-level wallclock annotation for path.
func (p *Program) PkgWallclock(path string) *Annotation { return p.pkgWallclock[path] }

// PkgClockfree returns the package-level clockfree annotation for path.
func (p *Program) PkgClockfree(path string) *Annotation { return p.pkgClockfree[path] }

// BuildProgram indexes the packages into a call graph and computes the fact
// summaries the contract analyzers consume.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Funcs:        make(map[string]*FuncNode),
		pkgWallclock: make(map[string]*Annotation),
		pkgClockfree: make(map[string]*Annotation),
		Pkgs:         pkgs,
	}
	for _, pkg := range pkgs {
		p.indexPackage(pkg)
	}
	for _, fn := range p.order {
		p.resolveCalls(fn)
	}
	p.alloc = computeAllocFacts(p)
	p.clock = computeClockFacts(p)
	return p
}

// indexPackage registers the package's functions, named types, and
// package-level annotations.
func (p *Program) indexPackage(pkg *Package) {
	if pkg.Pkg != nil {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				p.named = append(p.named, n)
			}
		}
	}
	for _, f := range pkg.Files {
		pkgAnnots := parseAnnotations(f.Doc)
		if a := annotationFor(pkgAnnots, annotWallclock); a != nil && pkg.Pkg != nil {
			p.pkgWallclock[pkg.Pkg.Path()] = a
		}
		if a := annotationFor(pkgAnnots, annotClockfree); a != nil && pkg.Pkg != nil {
			p.pkgClockfree[pkg.Pkg.Path()] = a
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			annots := parseAnnotations(fd.Doc)
			node := &FuncNode{
				ID:        obj.FullName(),
				Obj:       obj,
				Decl:      fd,
				Pkg:       pkg,
				Wallclock: annotationFor(annots, annotWallclock),
				Noalloc:   annotationFor(annots, annotNoalloc),
			}
			p.Funcs[node.ID] = node
			p.order = append(p.order, node)
		}
	}
}

// resolveCalls walks the function body (closures included — their calls are
// attributed to the enclosing declaration) and resolves every call site.
func (p *Program) resolveCalls(fn *FuncNode) {
	info := fn.Pkg.TypesInfo
	guards := warmUpRanges(fn.Decl.Body, info)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		site := p.resolveCall(info, call)
		if site == nil {
			return true
		}
		site.Amortized = guards.contains(call.Pos())
		fn.Calls = append(fn.Calls, site)
		return true
	})
}

// resolveCall classifies one call expression; nil for conversions, builtins,
// and immediately-invoked function literals (whose bodies are scanned as
// part of the enclosing function anyway).
func (p *Program) resolveCall(info *types.Info, call *ast.CallExpr) *CallSite {
	// Conversions ([]byte(s), T(x)) are not calls, whatever shape the type
	// expression takes.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](...) wraps the callee in an index node.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if _, isFn := info.TypeOf(idx.X).(*types.Signature); isFn {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.ObjectOf(fun).(type) {
		case *types.Func:
			return &CallSite{Pos: call.Pos(), Kind: CallStatic, Callee: obj}
		case *types.Builtin, *types.TypeName, nil:
			return nil // builtin or conversion: no call edge
		default:
			return &CallSite{Pos: call.Pos(), Kind: CallDynamic} // func value
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				m, _ := sel.Obj().(*types.Func)
				if m == nil {
					return &CallSite{Pos: call.Pos(), Kind: CallDynamic}
				}
				if types.IsInterface(sel.Recv()) {
					iface, _ := sel.Recv().Underlying().(*types.Interface)
					return &CallSite{
						Pos: call.Pos(), Kind: CallIface, Callee: m,
						Candidates: p.implementations(iface, m.Name()),
					}
				}
				return &CallSite{Pos: call.Pos(), Kind: CallStatic, Callee: m}
			default: // FieldVal: func-typed field
				return &CallSite{Pos: call.Pos(), Kind: CallDynamic}
			}
		}
		// Qualified identifier (pkg.F), conversion, or method expression on
		// a package-qualified type.
		switch obj := info.ObjectOf(fun.Sel).(type) {
		case *types.Func:
			return &CallSite{Pos: call.Pos(), Kind: CallStatic, Callee: obj}
		case *types.TypeName, nil:
			return nil
		default:
			return &CallSite{Pos: call.Pos(), Kind: CallDynamic}
		}
	case *ast.FuncLit:
		return nil // immediately invoked; body scanned in place
	default:
		return &CallSite{Pos: call.Pos(), Kind: CallDynamic}
	}
}

// implementations returns the sorted FuncIDs of methods on in-program named
// types (or pointers to them) that implement the interface's method. Types
// are compared structurally, so implementations found in a source-checked
// package match interfaces observed through export data as long as the
// method signatures mention only shared types.
func (p *Program) implementations(iface *types.Interface, method string) []string {
	if iface == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, n := range p.named {
		if types.IsInterface(n) {
			continue
		}
		var recv types.Type = n
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(n)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, n.Obj().Pkg(), method)
		if m, ok := obj.(*types.Func); ok {
			id := m.FullName()
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Strings(out)
	return out
}

// posRanges is a set of [from, to) position intervals.
type posRanges []struct{ from, to token.Pos }

func (r posRanges) contains(pos token.Pos) bool {
	for _, iv := range r {
		if pos >= iv.from && pos < iv.to {
			return true
		}
	}
	return false
}

// warmUpRanges collects the body ranges of warm-up guards: if statements
// whose condition re-checks a reusable buffer's readiness — a cap/len
// comparison or a nil test. Allocation sites and calls inside such a branch
// run only while scratch is still cold, so the steady state stays
// allocation-free; the noalloc contract admits them ("amortized").
func warmUpRanges(body *ast.BlockStmt, info *types.Info) posRanges {
	var out posRanges
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !isWarmUpCond(ifs.Cond, info) {
			return true
		}
		out = append(out, struct{ from, to token.Pos }{ifs.Body.Pos(), ifs.Body.End()})
		return true
	})
	return out
}

// isWarmUpCond reports whether the condition (or any || / && arm of it)
// compares cap()/len() of something, or tests something against nil.
func isWarmUpCond(cond ast.Expr, info *types.Info) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LOR, token.LAND:
			return isWarmUpCond(e.X, info) || isWarmUpCond(e.Y, info)
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.NEQ, token.EQL:
			if isNilIdent(e.X) || isNilIdent(e.Y) {
				return true
			}
			return isCapLenCall(e.X, info) || isCapLenCall(e.Y, info)
		}
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func isCapLenCall(e ast.Expr, info *types.Info) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.ObjectOf(id).(*types.Builtin)
	return ok && (b.Name() == "cap" || b.Name() == "len")
}

// PathString renders a call chain for diagnostics: "a → b → c".
func PathString(names []string) string { return strings.Join(names, " → ") }
