package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Wall-clock taint. A value is clock-tainted when it derives from time.Now,
// time.Since, or time.Until — directly, through a helper's return value,
// through a package variable, or through a struct field (Stopwatch{t0:
// time.Now()}). The determinism analyzer uses the taint to catch
// interprocedural leaks like rand.NewSource(defaultSeed()) where defaultSeed
// returns time.Now().UnixNano(); the clocksep analyzer uses the direct-site
// index to prove no path from sim-time tracer code into the wall clock.

type clockFacts struct {
	// direct lists each function's direct wall-clock call positions.
	direct map[string][]token.Pos
	// returns marks functions whose return value carries clock taint.
	returns map[string]bool
	// vars marks clock-tainted package variables, keyed "pkgpath.Name".
	vars map[string]bool
	// fields marks clock-tainted struct fields, keyed
	// "pkgpath.TypeName.field" — names, not objects, so a field observed
	// through export data matches the one from source type-checking.
	fields map[string]bool
	// locals holds each function's clock-tainted local variables.
	locals map[string]map[types.Object]bool
}

// isClockSource reports whether fn is one of the wall-clock entry points.
func isClockSource(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		return true
	}
	return false
}

// ClockTainted reports whether the expression, evaluated inside fn, carries
// wall-clock taint.
func (p *Program) ClockTainted(fn *FuncNode, e ast.Expr) bool {
	return p.clock.taintedExpr(fn.Pkg.TypesInfo, p.clock.locals[fn.ID], e)
}

// computeClockFacts seeds taint at the time.Now/Since/Until call sites and
// iterates a whole-program fixpoint: each round re-scans every function body,
// growing the tainted sets (locals, returns, package vars, struct fields)
// monotonically until a round changes nothing.
func computeClockFacts(p *Program) *clockFacts {
	f := &clockFacts{
		direct:  make(map[string][]token.Pos),
		returns: make(map[string]bool),
		vars:    make(map[string]bool),
		fields:  make(map[string]bool),
		locals:  make(map[string]map[types.Object]bool),
	}
	for _, fn := range p.order {
		f.locals[fn.ID] = make(map[types.Object]bool)
		info := fn.Pkg.TypesInfo
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := staticCallee(info, call); isClockSource(callee) {
				f.direct[fn.ID] = append(f.direct[fn.ID], call.Pos())
			}
			return true
		})
	}
	for changed, rounds := true, 0; changed && rounds < 32; rounds++ {
		changed = false
		for _, fn := range p.order {
			if f.propagate(fn) {
				changed = true
			}
		}
	}
	return f
}

// staticCallee resolves a call expression to its *types.Func when the callee
// is a plain function or method selection; nil otherwise.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// propagate runs one taint round over fn's body; reports whether any set grew.
func (f *clockFacts) propagate(fn *FuncNode) bool {
	info := fn.Pkg.TypesInfo
	locals := f.locals[fn.ID]
	changed := false
	taintLocal := func(obj types.Object) {
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); ok {
			if pkgLevelVar(v) {
				key := v.Pkg().Path() + "." + v.Name()
				if !f.vars[key] {
					f.vars[key] = true
					changed = true
				}
				return
			}
			if !locals[obj] {
				locals[obj] = true
				changed = true
			}
		}
	}
	taintLHS := func(lhs ast.Expr) {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			taintLocal(info.ObjectOf(l))
		case *ast.SelectorExpr:
			if key := fieldKey(info, l); key != "" {
				if !f.fields[key] {
					f.fields[key] = true
					changed = true
				}
			} else if root := RootIdent(l); root != nil {
				taintLocal(info.ObjectOf(root))
			}
		case *ast.IndexExpr:
			if root := RootIdent(l); root != nil {
				taintLocal(info.ObjectOf(root))
			}
		case *ast.StarExpr:
			if root := RootIdent(l); root != nil {
				taintLocal(info.ObjectOf(root))
			}
		}
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				if f.taintedExpr(info, locals, n.Rhs[0]) {
					for _, lhs := range n.Lhs {
						taintLHS(lhs)
					}
				}
				return true
			}
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && f.taintedExpr(info, locals, rhs) {
					taintLHS(n.Lhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 && len(n.Names) > 1 {
				if f.taintedExpr(info, locals, n.Values[0]) {
					for _, name := range n.Names {
						taintLocal(info.ObjectOf(name))
					}
				}
				return true
			}
			for i, v := range n.Values {
				if i < len(n.Names) && f.taintedExpr(info, locals, v) {
					taintLocal(info.ObjectOf(n.Names[i]))
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if f.taintedExpr(info, locals, r) && !f.returns[fn.ID] {
					f.returns[fn.ID] = true
					changed = true
				}
			}
			if len(n.Results) == 0 && !f.returns[fn.ID] {
				// Naked return: any tainted named result taints the return.
				if res := fn.Decl.Type.Results; res != nil {
					for _, field := range res.List {
						for _, name := range field.Names {
							if locals[info.ObjectOf(name)] {
								f.returns[fn.ID] = true
								changed = true
							}
						}
					}
				}
			}
		case *ast.CompositeLit:
			changed = f.taintCompositeFields(info, locals, n) || changed
		}
		return true
	})
	return changed
}

// taintCompositeFields records field taint from composite literals:
// Stopwatch{t0: time.Now()} marks obs.Stopwatch.t0 tainted program-wide.
func (f *clockFacts) taintCompositeFields(info *types.Info, locals map[types.Object]bool, lit *ast.CompositeLit) bool {
	t := info.TypeOf(lit)
	if t == nil {
		return false
	}
	named := namedOf(t)
	if named == nil {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	changed := false
	mark := func(fieldName string) {
		key := typeKey(named) + "." + fieldName
		if !f.fields[key] {
			f.fields[key] = true
			changed = true
		}
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if f.taintedExpr(info, locals, kv.Value) {
				if id, ok := kv.Key.(*ast.Ident); ok {
					mark(id.Name)
				}
			}
			continue
		}
		if f.taintedExpr(info, locals, elt) && i < st.NumFields() {
			mark(st.Field(i).Name())
		}
	}
	return changed
}

// taintedExpr reports whether e carries clock taint under the current facts.
func (f *clockFacts) taintedExpr(info *types.Info, locals map[types.Object]bool, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		// Conversion T(x): taint flows through (int64(now) is still now).
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			for _, arg := range e.Args {
				if f.taintedExpr(info, locals, arg) {
					return true
				}
			}
			return false
		}
		callee := staticCallee(info, e)
		if isClockSource(callee) {
			return true
		}
		if callee != nil && f.returns[callee.FullName()] {
			return true
		}
		// A method on a tainted receiver yields a tainted value
		// (t.UnixNano() with t a captured time.Now()).
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && callee != nil {
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
				if f.taintedExpr(info, locals, sel.X) {
					return true
				}
			}
		}
		return false
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if locals[obj] {
			return true
		}
		if v, ok := obj.(*types.Var); ok && pkgLevelVar(v) {
			return f.vars[v.Pkg().Path()+"."+v.Name()]
		}
		return false
	case *ast.SelectorExpr:
		if key := fieldKey(info, e); key != "" && f.fields[key] {
			return true
		}
		// Qualified package var (pkg.Var) or field of a tainted base.
		if v, ok := info.ObjectOf(e.Sel).(*types.Var); ok && pkgLevelVar(v) {
			return f.vars[v.Pkg().Path()+"."+v.Name()]
		}
		return f.taintedExpr(info, locals, e.X)
	case *ast.BinaryExpr:
		return f.taintedExpr(info, locals, e.X) || f.taintedExpr(info, locals, e.Y)
	case *ast.UnaryExpr:
		return f.taintedExpr(info, locals, e.X)
	case *ast.StarExpr:
		return f.taintedExpr(info, locals, e.X)
	case *ast.IndexExpr:
		return f.taintedExpr(info, locals, e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if f.taintedExpr(info, locals, v) {
				return true
			}
		}
		return false
	}
	return false
}

// fieldKey renders a field selection as "pkgpath.TypeName.field" when the
// selector names a struct field of a named type; "" otherwise.
func fieldKey(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	named := namedOf(s.Recv())
	if named == nil {
		return ""
	}
	return typeKey(named) + "." + sel.Sel.Name
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func typeKey(n *types.Named) string {
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

func pkgLevelVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// ClockReachable computes, for the given root function, a shortest call path
// to any function with a direct wall-clock site (the root itself included).
// Only static edges and resolved interface candidates are followed — calls
// through plain func values cannot be traced. Returns the path as function
// display names ending at the clock-reading function, or nil.
func (p *Program) ClockReachable(rootID string) []string {
	type item struct {
		id   string
		prev int
	}
	var queue []item
	seen := map[string]bool{rootID: true}
	queue = append(queue, item{rootID, -1})
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		fn := p.Funcs[cur.id]
		if fn == nil {
			continue
		}
		if len(p.clock.direct[cur.id]) > 0 {
			var rev []string
			for j := i; j != -1; j = queue[j].prev {
				rev = append(rev, p.Funcs[queue[j].id].Name())
			}
			for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
				rev[l], rev[r] = rev[r], rev[l]
			}
			return rev
		}
		for _, c := range fn.Calls {
			var nexts []string
			switch c.Kind {
			case CallStatic:
				if c.Callee != nil {
					nexts = []string{c.Callee.FullName()}
				}
			case CallIface:
				nexts = c.Candidates
			}
			for _, id := range nexts {
				if !seen[id] && p.Funcs[id] != nil {
					seen[id] = true
					queue = append(queue, item{id, i})
				}
			}
		}
	}
	return nil
}
