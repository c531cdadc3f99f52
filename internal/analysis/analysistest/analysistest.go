// Package analysistest is a stdlib-only golden-test harness for the
// internal/analysis analyzers, modelled on
// golang.org/x/tools/go/analysis/analysistest. Fixture packages live under
// <analyzer>/testdata/src/<pkg>/ and annotate expected diagnostics with
// trailing comments of the form
//
//	x := badCall() // want "regexp" "second regexp"
//
// Every diagnostic must match a want pattern on its line and every want
// pattern must be matched by a distinct diagnostic, so fixtures pin both
// the positives (seeded violations) and the negatives (clean idioms that
// must stay unflagged).
package analysistest

//lint:file-ignore deadexport test-support package: its exports exist for the analyzers' tests

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/libra-wlan/libra/internal/analysis"
)

// Run loads each fixture package from dir/src/<pkg>, applies the analyzer,
// and checks the produced diagnostics against the // want annotations.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) {
			t.Helper()
			runOne(t, filepath.Join(dir, "src", pkg), a)
		})
	}
}

// TestData returns the absolute path of the calling test's testdata dir.
func TestData(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "testdata")
}

func runOne(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg := loadFixture(t, dir)
	findings, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pkg)
	checkMatches(t, findings, wants)
}

// loadFixture parses and type-checks every .go file in dir as one package,
// resolving its (standard-library) imports through export data.
func loadFixture(t *testing.T, dir string) *analysis.Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				importSet[p] = true
			}
		}
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)
	exports, err := analysis.ListExports(dir, imports)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &analysis.Package{
		Path:      fixturePath(dir),
		Dir:       dir,
		Fset:      fset,
		Files:     files,
		TypesInfo: analysis.NewTypesInfo(),
	}
	conf := types.Config{Importer: analysis.ExportImporter(fset, exports)}
	p, err := conf.Check(pkg.Path, fset, files, pkg.TypesInfo)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	pkg.Pkg = p
	return pkg
}

// fixturePath derives the fixture's import path from its directory name so
// analyzers with package-path scoping (e.g. determinism's cmd/ exemption)
// see a plausible in-repo path: fixtures named cmd* land under cmd/,
// everything else under internal/.
func fixturePath(dir string) string {
	base := filepath.Base(dir)
	if strings.HasPrefix(base, "cmd") {
		return "github.com/libra-wlan/libra/cmd/" + base
	}
	return "github.com/libra-wlan/libra/internal/fixtures/" + base
}

// want is one expected-diagnostic annotation.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)

// collectWants extracts the // want "re" annotations from fixture comments.
func collectWants(t *testing.T, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, raw := range splitQuoted(t, pos, m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return wants
}

// splitQuoted parses a sequence of Go-quoted or backquoted strings.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var q byte
		switch s[0] {
		case '"':
			q = '"'
		case '`':
			q = '`'
		default:
			t.Fatalf("%s: malformed want annotation near %q", pos, s)
		}
		end := strings.IndexByte(s[1:], q)
		if end < 0 {
			t.Fatalf("%s: unterminated want pattern %q", pos, s)
		}
		lit := s[:end+2]
		unq, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: bad want pattern %s: %v", pos, lit, err)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

// checkMatches enforces the bijection between findings and wants per line.
func checkMatches(t *testing.T, findings []analysis.Finding, wants []*want) {
	t.Helper()
	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmatched want on the finding's line whose pattern
// matches the message.
func claim(wants []*want, f analysis.Finding) bool {
	for _, w := range wants {
		if w.matched || w.file != f.Pos.Filename || w.line != f.Pos.Line {
			continue
		}
		if w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
