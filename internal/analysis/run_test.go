package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// TestLoadRealPackage exercises the go list -export loader against an
// actual in-repo package with both stdlib and intra-module imports.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load("../..", "./internal/channel")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Path != "github.com/libra-wlan/libra/internal/channel" {
		t.Errorf("unexpected path %q", pkg.Path)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	if len(pkg.Files) == 0 || pkg.Pkg == nil || !pkg.Pkg.Complete() {
		t.Fatalf("incomplete load: files=%d pkg=%v", len(pkg.Files), pkg.Pkg)
	}
	// Cross-module imports must resolve through export data.
	found := false
	for _, imp := range pkg.Pkg.Imports() {
		if imp.Path() == "github.com/libra-wlan/libra/internal/dsp" {
			found = true
		}
	}
	if !found {
		t.Error("internal/dsp import did not resolve through export data")
	}
}

// parsePackage type-checks an import-free source string into a Package.
func parsePackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "suppress.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{
		Path:      "github.com/libra-wlan/libra/internal/fixtures/suppress",
		Fset:      fset,
		Files:     []*ast.File{f},
		TypesInfo: NewTypesInfo(),
	}
	conf := types.Config{}
	pkg.Pkg, err = conf.Check(pkg.Path, fset, pkg.Files, pkg.TypesInfo)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// callReporter flags every function call; the suppression tests count which
// survive the //lint:ignore filter.
var callReporter = &Analyzer{
	Name: "callreporter",
	Doc:  "test analyzer: reports every call expression",
	Run: func(pass *Pass) (any, error) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					pass.Reportf(c.Pos(), "call")
				}
				return true
			})
		}
		return nil, nil
	},
}

func TestSuppression(t *testing.T) {
	const src = `package suppress

func f() int { return 0 }

func a() int {
	return f() // plain: reported
}

func b() int {
	//lint:ignore callreporter justified on the preceding line
	return f()
}

func c() int {
	return f() //lint:ignore callreporter justified on the same line
}

func d() int {
	//lint:ignore callreporter
	return f() // no reason given: suppression invalid, still reported
}

func e() int {
	//lint:ignore otherchecker reason names a different analyzer
	return f()
}

func g() int {
	//lint:ignore * wildcard silences every analyzer
	return f()
}
`
	pkg := parsePackage(t, src)
	findings, err := RunPackage(pkg, []*Analyzer{callReporter})
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, f := range findings {
		lines = append(lines, f.Pos.Line)
	}
	// a (line 6), d (line 20), e (line 25) survive; b, c, g are suppressed.
	want := []int{6, 20, 25}
	if len(lines) != len(want) {
		t.Fatalf("findings on lines %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("findings on lines %v, want %v", lines, want)
		}
	}
}

func TestFileIgnore(t *testing.T) {
	const src = `package suppress

//lint:file-ignore callreporter this file is exempt wholesale

func f() int { return 0 }

func a() int { return f() }
func b() int { return f() }
`
	pkg := parsePackage(t, src)
	findings, err := RunPackage(pkg, []*Analyzer{callReporter})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("file-ignore leaked findings: %v", findings)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Analyzer: "dbunits",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "msg",
	}
	if got := f.String(); !strings.Contains(got, "x.go:3:7") || !strings.Contains(got, "dbunits") {
		t.Errorf("bad finding format %q", got)
	}
}
