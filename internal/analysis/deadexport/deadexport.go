// Package deadexport keeps the exported surface of internal/ to what the
// program uses: an exported function or method declared there must be
// referenced by a non-test file of the module, its own package included.
// A method is also live when its type satisfies an interface the program
// mentions, or fmt.Stringer or error, which the standard library finds at
// run time. The verdict needs every referrer loaded, so only a whole-module
// run (./... from the module root) is judged.
package deadexport

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"sync"

	"github.com/libra-wlan/libra/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "deadexport",
	Doc: "reports exported functions and methods of internal/ packages that only " +
		"tests reference; judged only when the whole module is loaded",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !pass.Prog.Whole || !strings.Contains("/"+pass.Pkg.Path()+"/", "/internal/") {
		return nil, nil
	}
	refs := referencesOf(pass.Prog)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && !refs.live(fn) {
				pass.Reportf(fd.Name.Pos(), "exported %s is referenced only by tests: delete it, "+
					"or move it into the test that uses it", strings.ReplaceAll(fn.FullName(), pass.Pkg.Path()+".", ""))
			}
		}
	}
	return nil, nil
}

// refs holds the functions non-test files use, by full name, and the
// interfaces they mention, each as its methods' keys.
type refs struct {
	used   map[string]bool
	ifaces [][]string
}

// cache holds the last Program's references, so a run collects them once
// however many packages its workers analyze.
var cache struct {
	sync.Mutex
	prog *analysis.Program
	refs *refs
}

func referencesOf(prog *analysis.Program) *refs {
	cache.Lock()
	defer cache.Unlock()
	if cache.prog != prog {
		cache.prog, cache.refs = prog, collect(prog)
	}
	return cache.refs
}

// collect walks every loaded file in load order, recording each function an
// identifier uses and each interface an expression's type mentions.
func collect(prog *analysis.Program) *refs {
	r := &refs{used: make(map[string]bool)}
	seen := make(map[types.Type]bool)
	var walk func(types.Type)
	walk = func(t types.Type) {
		t = types.Unalias(t)
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			walk(t.Underlying())
		case *types.Interface:
			var keys []string
			for i := 0; i < t.NumMethods(); i++ {
				keys = append(keys, methodKey(t.Method(i).Name(), t.Method(i).Type()))
			}
			if len(keys) > 0 {
				r.ifaces = append(r.ifaces, keys)
			}
		case interface{ Elem() types.Type }: // pointer, slice, array, map, chan
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					walk(pkg.TypesInfo.TypeOf(e))
				}
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := pkg.TypesInfo.Uses[id].(*types.Func); ok {
						r.used[fn.Origin().FullName()] = true
					}
				}
				return true
			})
		}
	}
	return r
}

// live reports whether fn is used by name or, for a method, through an
// interface that its receiver's pointer method set satisfies.
func (r *refs) live(fn *types.Func) bool {
	if r.used[fn.FullName()] {
		return true
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	key := methodKey(fn.Name(), sig)
	if key == "String,;,string,;" || key == "Error,;,string,;" { // String() string, Error() string
		return true
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	have := make(map[string]bool)
	mset := types.NewMethodSet(types.NewPointer(recv))
	for i := 0; i < mset.Len(); i++ {
		have[methodKey(mset.At(i).Obj().Name(), mset.At(i).Type())] = true
	}
	for _, iface := range r.ifaces {
		satisfied := slices.Contains(iface, key)
		for _, k := range iface {
			satisfied = satisfied && have[k]
		}
		if satisfied {
			return true
		}
	}
	return false
}

// methodKey renders a method's name and parameter and result types, with
// full package paths and no names: equal keys mean identical methods even
// between export data and a package checked from source.
func methodKey(name string, sig types.Type) string {
	s := sig.(*types.Signature)
	b := []string{name}
	for _, t := range []*types.Tuple{s.Params(), s.Results()} {
		for i := 0; i < t.Len(); i++ {
			b = append(b, types.TypeString(t.At(i).Type(), nil))
		}
		b = append(b, ";")
	}
	if s.Variadic() {
		b = append(b, "...")
	}
	return strings.Join(b, ",")
}
