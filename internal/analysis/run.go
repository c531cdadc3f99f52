package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// A Finding is one diagnostic resolved to a concrete position, tagged with
// the analyzer that produced it.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// RunN loads the packages matched by patterns (relative to dir) and applies
// every analyzer to every package on workers goroutines (<= 0 means
// GOMAXPROCS), returning the surviving findings sorted by position.
// Suppressions (see lintIgnores) are applied here so every consumer honours
// them identically. The interprocedural Program is built once, serially,
// before the pool starts; it is Whole when the patterns are ./... from the
// module root. Findings are merged in package load order and then
// position-sorted with a full tie-break, so the output bytes are identical
// for every worker count.
//
// A panicking analyzer is contained: its panic is reported through the
// returned error (joined across analyzers and packages) while every other
// analyzer's findings are kept, so one crashing check cannot mask the rest.
func RunN(dir string, patterns []string, analyzers []*Analyzer, workers int) ([]Finding, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	prog := BuildProgram(pkgs)
	_, statErr := os.Stat(filepath.Join(dir, "go.mod"))
	prog.Whole = statErr == nil && len(patterns) == 1 && patterns[0] == "./..."
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}

	perPkg := make([][]Finding, len(pkgs))
	errs := make([]error, len(pkgs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				perPkg[i], errs[i] = RunPackageProg(pkgs[i], prog, analyzers)
			}
		}()
	}
	for i := range pkgs {
		next <- i
	}
	close(next)
	wg.Wait()

	var findings []Finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	sortFindings(findings)
	return findings, errors.Join(errs...)
}

// sortFindings orders findings by position with analyzer and message
// tie-breaks — a total order, so concurrent runs serialize identically.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// RunPackage applies the analyzers to one loaded package, building a
// single-package interprocedural Program for the pass. The analysistest
// harness and engine tests use this entry point; the multi-package driver
// goes through RunN so the Program spans the whole pattern set.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	prog := BuildProgram([]*Package{pkg})
	prog.Whole = true
	return RunPackageProg(pkg, prog, analyzers)
}

// RunPackageProg applies the analyzers to one package against a prebuilt
// Program and filters the diagnostics through the package's //lint:ignore
// comments. Analyzer panics are contained per analyzer: the findings of the
// others survive and the panics come back in the (joined) error.
func RunPackageProg(pkg *Package, prog *Program, analyzers []*Analyzer) ([]Finding, error) {
	ignores := lintIgnores(pkg)
	var findings []Finding
	var errs []error
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			Prog:      prog,
		}
		name := a.Name
		// Collect into a per-analyzer slice and commit only on clean return,
		// so a half-run panicking analyzer contributes nothing partial.
		var mine []Finding
		pass.Report = func(d Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if ignores.suppressed(name, pos) {
				return
			}
			mine = append(mine, Finding{Analyzer: name, Pos: pos, Message: d.Message})
		}
		if err := runContained(a, pass); err != nil {
			errs = append(errs, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err))
			continue
		}
		findings = append(findings, mine...)
	}
	return findings, errors.Join(errs...)
}

// runContained invokes one analyzer, converting a panic into an error.
func runContained(a *Analyzer, pass *Pass) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	_, err = a.Run(pass)
	return err
}

// ignoreSet records, per file, which analyzers are suppressed on which lines
// (and which are suppressed for the whole file).
type ignoreSet struct {
	// line[file][line] holds analyzer names (or "*") ignored at that line.
	line map[string]map[int][]string
	// file[file] holds analyzer names (or "*") ignored file-wide.
	file map[string][]string
}

// lintIgnores scans the package's comments for the two suppression forms:
//
//	//lint:ignore <analyzer> <reason>       — next (or same) line only
//	//lint:file-ignore <analyzer> <reason>  — whole file
//
// <analyzer> may be "*" to suppress every libra-lint check. The reason is
// mandatory: a bare "//lint:ignore determinism" suppresses nothing, so every
// silenced finding carries its justification in the source.
func lintIgnores(pkg *Package) *ignoreSet {
	set := &ignoreSet{
		line: make(map[string]map[int][]string),
		file: make(map[string][]string),
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				fields := strings.Fields(text)
				if len(fields) < 3 {
					continue // no reason given: not a valid suppression
				}
				pos := pkg.Fset.Position(c.Pos())
				switch fields[0] {
				case "lint:ignore":
					m := set.line[pos.Filename]
					if m == nil {
						m = make(map[int][]string)
						set.line[pos.Filename] = m
					}
					// A suppression covers its own line (trailing
					// comment) and the next line (standalone comment
					// above the offending statement).
					m[pos.Line] = append(m[pos.Line], fields[1])
					m[pos.Line+1] = append(m[pos.Line+1], fields[1])
				case "lint:file-ignore":
					set.file[pos.Filename] = append(set.file[pos.Filename], fields[1])
				}
			}
		}
	}
	return set
}

func (s *ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	for _, name := range s.file[pos.Filename] {
		if name == analyzer || name == "*" {
			return true
		}
	}
	for _, name := range s.line[pos.Filename][pos.Line] {
		if name == analyzer || name == "*" {
			return true
		}
	}
	return false
}

// DeclaredOutside reports whether the identifier's object is declared
// outside the syntactic range [from, to) — the shared "captured or outer
// variable" test used by the determinism and floatreduce analyzers.
func DeclaredOutside(pass *Pass, id *ast.Ident, from, to token.Pos) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil || obj.Pos() == token.NoPos {
		return false
	}
	return obj.Pos() < from || obj.Pos() >= to
}

// RootIdent returns the identifier at the base of a selector/index chain
// (x, x.f, x[i].g → x), or nil if the base is not a plain identifier.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}
