package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Allocation facts. For every function in the program the engine decides
// whether its steady state is provably allocation-free: no direct allocation
// sites outside warm-up guards, and every callee either annotated
// //lint:noalloc, itself proven allocation-free, or on the short allowlist
// of external functions known not to allocate. The noalloc analyzer reports
// the per-site diagnostics inside annotated functions; these facts answer
// the interprocedural half ("does this unannotated callee allocate?").

// An AllocSite is one construct that allocates (or must be assumed to).
type AllocSite struct {
	Pos       token.Pos
	What      string // human-readable description of the construct
	Amortized bool   // inside a warm-up guard: cold-path only
}

type allocFacts struct {
	// sites holds every function's direct allocation sites (amortized ones
	// included, marked — the noalloc analyzer reports only the hot ones).
	sites map[string][]AllocSite
	// allocates marks functions whose steady state may allocate; why records
	// the first reason for diagnostics.
	allocates map[string]bool
	why       map[string]string
}

// AllocSites returns the direct allocation sites of fn's body.
func (p *Program) AllocSites(fn *FuncNode) []AllocSite { return p.alloc.sites[fn.ID] }

// externAllocFree is the allowlist of external (outside-the-program) callees
// the noalloc contract accepts: pure arithmetic, atomics, lock/unlock, the
// plumbed-RNG draw methods, and the fixed-width encoding/binary helpers.
// sync.Pool.Get/Put are admitted as the sanctioned amortization primitive:
// a warm pool returns cached scratch, and the cold Get that runs New is
// exactly the warm-up case the contract already admits.
func externAllocFree(fn *types.Func) bool {
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "math", "math/bits", "sync/atomic":
			return true
		case "encoding/binary":
			switch fn.Name() {
			case "Uint16", "Uint32", "Uint64",
				"PutUint16", "PutUint32", "PutUint64",
				"AppendUint16", "AppendUint32", "AppendUint64":
				return true
			}
			return false
		case "math/rand", "math/rand/v2":
			// Draw methods on a plumbed generator do not allocate; the
			// constructors and Perm do.
			switch fn.Name() {
			case "Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
				"Uint32", "Uint64", "Float32", "Float64",
				"ExpFloat64", "NormFloat64", "Shuffle":
				return true
			}
			return false
		case "errors":
			return fn.Name() == "Is"
		}
	}
	switch fn.FullName() {
	case "(*sync.Pool).Get", "(*sync.Pool).Put",
		"(*sync.Mutex).Lock", "(*sync.Mutex).Unlock", "(*sync.Mutex).TryLock",
		"(*sync.RWMutex).Lock", "(*sync.RWMutex).Unlock",
		"(*sync.RWMutex).RLock", "(*sync.RWMutex).RUnlock",
		"(*sync.WaitGroup).Add", "(*sync.WaitGroup).Done", "(*sync.WaitGroup).Wait",
		"(*sync.Once).Do",
		"(time.Time).UnixNano", "(time.Time).Unix", "(time.Time).Sub",
		"(time.Duration).Seconds", "(time.Duration).Nanoseconds",
		"(time.Duration).Milliseconds", "(time.Duration).Microseconds":
		return true
	}
	return false
}

// ifaceAllocFree is the allowlist for calls through external interfaces the
// engine cannot resolve to implementations.
func ifaceAllocFree(fullName string) bool {
	switch fullName {
	case "(context.Context).Err", "(context.Context).Done", "(context.Context).Deadline":
		return true
	}
	return false
}

// computeAllocFacts scans every function for direct allocation sites, then
// runs an optimistic fixpoint over the call graph: everything starts
// allocation-free and flips when a hot-path site or an allocating (or
// unresolvable) callee is found, until nothing changes. Cycles resolve to
// whatever their member bodies prove — a recursion with no allocation sites
// stays free.
func computeAllocFacts(p *Program) *allocFacts {
	f := &allocFacts{
		sites:     make(map[string][]AllocSite, len(p.order)),
		allocates: make(map[string]bool),
		why:       make(map[string]string),
	}
	for _, fn := range p.order {
		f.sites[fn.ID] = scanAllocSites(fn)
	}
	mark := func(fn *FuncNode, why string) bool {
		if f.allocates[fn.ID] {
			return false
		}
		f.allocates[fn.ID] = true
		f.why[fn.ID] = why
		return true
	}
	for _, fn := range p.order {
		for _, s := range f.sites[fn.ID] {
			if !s.Amortized {
				mark(fn, s.What)
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range p.order {
			if f.allocates[fn.ID] || fn.Noalloc != nil {
				// Annotated functions are trusted interprocedurally; their
				// own bodies are checked by the noalloc analyzer.
				continue
			}
			if why := f.callAllocWhy(p, fn); why != "" {
				changed = mark(fn, why) || changed
			}
		}
	}
	return f
}

// callAllocWhy returns a reason fn's calls may allocate, or "".
func (f *allocFacts) callAllocWhy(p *Program, fn *FuncNode) string {
	for _, c := range fn.Calls {
		if c.Amortized {
			continue
		}
		if why := f.siteAllocWhy(p, c); why != "" {
			return why
		}
	}
	return ""
}

// CallAllocWhy reports why one call site may allocate under the noalloc
// contract, or "" when every possible callee is annotated, proven
// allocation-free, or allowlisted. The noalloc analyzer uses it for
// per-site diagnostics inside annotated functions.
func (p *Program) CallAllocWhy(c *CallSite) string { return p.alloc.siteAllocWhy(p, c) }

func (f *allocFacts) siteAllocWhy(p *Program, c *CallSite) string {
	switch c.Kind {
	case CallStatic:
		callee := p.FuncAt(c.Callee)
		if callee == nil {
			if !externAllocFree(c.Callee) {
				return fmt.Sprintf("calls %s (external, not known allocation-free)", c.Callee.FullName())
			}
			return ""
		}
		if callee.Noalloc != nil {
			return ""
		}
		if f.allocates[callee.ID] {
			return fmt.Sprintf("calls %s, which allocates (%s)", callee.Name(), f.why[callee.ID])
		}
	case CallIface:
		if len(c.Candidates) == 0 {
			if !ifaceAllocFree(c.Callee.FullName()) {
				return fmt.Sprintf("calls interface method %s with no resolvable implementation", c.Callee.FullName())
			}
			return ""
		}
		for _, id := range c.Candidates {
			impl := p.Funcs[id]
			if impl == nil || (impl.Noalloc == nil && f.allocates[id]) {
				return fmt.Sprintf("calls interface method %s; implementation %s allocates", c.Callee.Name(), id)
			}
		}
	case CallDynamic:
		return "calls through a func value"
	}
	return ""
}

// scanAllocSites finds the direct allocation constructs in one body:
// make/new, non-amortized appends, slice/map composite literals, escaping
// (&-taken) composites, interface boxing, string concatenation and
// string↔[]byte conversions, map writes, capturing closures, and go
// statements. Appends that grow a caller-owned buffer in place
// (x = append(x, ...) with x rooted at a parameter, the receiver, or a
// re-slice of one) are the amortized idiom and produce no site.
func scanAllocSites(fn *FuncNode) []AllocSite {
	info := fn.Pkg.TypesInfo
	body := fn.Decl.Body
	guards := warmUpRanges(body, info)
	callerBuf := callerBuffers(fn)
	var sites []AllocSite
	add := func(pos token.Pos, what string) {
		sites = append(sites, AllocSite{Pos: pos, What: what, Amortized: guards.contains(pos)})
	}

	// selfAppends records append calls of the sanctioned in-place form so the
	// generic call walk below can skip them.
	selfAppends := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinCall(info, call, "append") || len(call.Args) == 0 {
				continue
			}
			lr, ar := RootIdent(as.Lhs[i]), RootIdent(call.Args[0])
			if lr == nil || ar == nil || info.ObjectOf(lr) != info.ObjectOf(ar) {
				continue
			}
			if callerBuf[info.ObjectOf(lr)] {
				selfAppends[call] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			scanCallAlloc(info, n, selfAppends, add)
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				add(n.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				add(n.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				add(n.Pos(), "string concatenation allocates")
			}
		case *ast.FuncLit:
			if closureCaptures(info, n) {
				add(n.Pos(), "closure captures variables and allocates")
			}
		case *ast.GoStmt:
			add(n.Pos(), "go statement allocates a goroutine")
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isMapIndex(info, lhs) {
					add(lhs.Pos(), "map write may allocate")
				}
			}
		case *ast.IncDecStmt:
			if isMapIndex(info, n.X) {
				add(n.X.Pos(), "map write may allocate")
			}
		}
		return true
	})
	return sites
}

// scanCallAlloc handles the call-shaped allocation constructs: make, new,
// growing append, string↔[]byte conversions, and interface boxing of
// concrete arguments at call boundaries.
func scanCallAlloc(info *types.Info, call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool, add func(token.Pos, string)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make allocates")
			case "new":
				add(call.Pos(), "new allocates")
			case "append":
				if !selfAppends[call] {
					add(call.Pos(), "append may grow and allocate; grow a caller-owned buffer in place instead")
				}
			}
			return
		}
	}
	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.TypeOf(call.Args[0])
		if isStringByteConv(to, from) {
			add(call.Pos(), "string↔[]byte conversion copies and allocates")
		}
		return
	}
	// Interface boxing of concrete arguments.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < sig.Params().Len()-1:
			pt = sig.Params().At(i).Type()
		case sig.Params().Len() > 0:
			pt = sig.Params().At(sig.Params().Len() - 1).Type()
			if sig.Variadic() && !call.Ellipsis.IsValid() {
				if sl, ok := pt.(*types.Slice); ok {
					pt = sl.Elem()
				}
			}
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isPointerShaped(at) || isUntypedNil(info, arg) {
			continue
		}
		add(arg.Pos(), "argument boxes a concrete value into an interface")
	}
}

func isMapIndex(info *types.Info, e ast.Expr) bool {
	idx, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == name
}

// callerBuffers collects the objects that denote caller-owned storage:
// parameters, the receiver, named results, and locals initialized (or
// re-assigned) as re-slices of such storage or of struct fields reached
// through it. Appending in place to one of these is the amortized idiom —
// capacity belongs to the caller and is reused across calls.
func callerBuffers(fn *FuncNode) map[types.Object]bool {
	info := fn.Pkg.TypesInfo
	set := make(map[types.Object]bool)
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.ObjectOf(name); obj != nil {
					set[obj] = true
				}
			}
		}
	}
	addField(fn.Decl.Recv)
	addField(fn.Decl.Type.Params)
	addField(fn.Decl.Type.Results)

	// Propagate through re-slices: x := buf[:0], x := s.field[:n], x := buf.
	// Iterate until stable so chains (a := s.b[:0]; c := a) resolve.
	rooted := func(e ast.Expr) bool {
		r := RootIdent(e)
		return r != nil && set[info.ObjectOf(r)]
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil || set[obj] {
					continue
				}
				switch rhs := ast.Unparen(as.Rhs[i]).(type) {
				case *ast.SliceExpr:
					if rooted(rhs.X) {
						set[obj] = true
						changed = true
					}
				case *ast.Ident, *ast.SelectorExpr:
					if rooted(rhs) {
						set[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return set
}

// closureCaptures reports whether the literal references variables declared
// outside itself but inside the enclosing function (true closures allocate;
// literals that only touch their own locals and package globals are static).
func closureCaptures(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.ObjectOf(id).(*types.Var)
		if !ok || obj.Pos() == token.NoPos {
			return true
		}
		// Package-level vars don't capture; anything declared outside the
		// literal but at local (non-package) scope does.
		if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() >= lit.End() {
			captures = true
			return false
		}
		return true
	})
	return captures
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isStringByteConv(to, from types.Type) bool {
	isBytes := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStringType(to) && isBytes(from)) || (isBytes(to) && isStringType(from))
}

// isPointerShaped reports whether values of t fit an interface's data word
// without boxing: pointers, channels, maps, funcs, and unsafe pointers.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Basic:
		b, ok := t.Underlying().(*types.Basic)
		if ok {
			return b.Kind() == types.UnsafePointer
		}
		return true
	}
	return false
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
