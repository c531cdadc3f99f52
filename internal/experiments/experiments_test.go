package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/cots"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/sim"
)

// A shared suite keeps campaign generation and training out of every test.
var (
	suiteOnce sync.Once
	suite     *Suite
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() { suite = NewSuite(42) })
	return suite
}

func TestSuiteCaching(t *testing.T) {
	s := testSuite(t)
	if s.Main() != s.Main() {
		t.Error("Main not cached")
	}
	if s.Test() != s.Test() {
		t.Error("Test not cached")
	}
	c1, err := s.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := s.Classifier()
	if c1 != c2 {
		t.Error("Classifier not cached")
	}
	if s.Pools() != s.Pools() {
		t.Error("Pools not cached")
	}
}

func TestTestEntriesExcludeNA(t *testing.T) {
	s := testSuite(t)
	entries := s.TestEntries()
	if len(entries) != 228 {
		t.Errorf("test entries = %d, want 228", len(entries))
	}
	for _, e := range entries {
		if e.Impairment == dataset.NoImpairment {
			t.Fatal("NA entry leaked into the evaluation set")
		}
	}
}

func TestTable1Shape(t *testing.T) {
	s := testSuite(t)
	tb := Table1(s)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Row 0 is displacement with 479 cases; last row overall with 668.
	if tb.Rows[0][1] != "479" || tb.Rows[3][1] != "668" {
		t.Errorf("case counts: %v / %v", tb.Rows[0][1], tb.Rows[3][1])
	}
	out := tb.String()
	if !strings.Contains(out, "Displacement") || !strings.Contains(out, "Corridors") {
		t.Error("rendered table missing rows/columns")
	}
}

func TestTable2Shape(t *testing.T) {
	s := testSuite(t)
	tb := Table2(s)
	if tb.Rows[3][1] != "228" {
		t.Errorf("overall cases = %v", tb.Rows[3][1])
	}
	if !strings.Contains(tb.String(), "Building 1") {
		t.Error("missing building column")
	}
}

func TestTable3Importances(t *testing.T) {
	s := testSuite(t)
	tb, err := Table3(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Header) != dataset.NumFeatures || len(tb.Rows[0]) != dataset.NumFeatures {
		t.Fatal("importance table shape")
	}
	var sum float64
	for _, cell := range tb.Rows[0] {
		var v float64
		if _, err := fmt.Sscan(cell, &v); err != nil {
			t.Fatalf("cell %q", cell)
		}
		sum += v
	}
	if sum < 0.98 || sum > 1.02 {
		t.Errorf("importances sum to %v", sum)
	}
}

func TestMetricFigures(t *testing.T) {
	s := testSuite(t)
	figs := []*Figure{Figure4(s), Figure5(s), Figure6(s), Figure7(s), Figure8(s), Figure9(s)}
	for _, f := range figs {
		if len(f.Panels) != 4 {
			t.Fatalf("%s: %d panels", f.Title, len(f.Panels))
		}
		for _, p := range f.Panels {
			if len(p.Series) != 2 {
				t.Fatalf("%s/%s: %d series", f.Title, p.Title, len(p.Series))
			}
		}
		if f.String() == "" {
			t.Error("empty rendering")
		}
	}
}

func TestFigure4DisplacementCounts(t *testing.T) {
	s := testSuite(t)
	f := Figure4(s)
	// Panel labels carry the class sizes, e.g. "BA (410)".
	lbl := f.Panels[0].Series[0].Label
	if !strings.HasPrefix(lbl, "BA (") {
		t.Errorf("series label %q", lbl)
	}
	ba, ra, _ := s.Main().CountLabels(dataset.Displacement)
	wantBA := "BA ("
	if !strings.Contains(lbl, wantBA) {
		t.Error("label format")
	}
	_ = ba
	_ = ra
}

func TestFigure4SeparationShape(t *testing.T) {
	// The paper's displacement observation: BA cases have larger SNR drops
	// than RA cases (medians separated).
	s := testSuite(t)
	f := Figure4(s)
	disp := f.Panels[0]
	baMed := median(disp.Series[0].X)
	raMed := median(disp.Series[1].X)
	if baMed <= raMed {
		t.Errorf("BA median SNR drop %v <= RA median %v", baMed, raMed)
	}
}

func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	cp := append([]float64(nil), x...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func TestCrossValidationTable(t *testing.T) {
	s := testSuite(t)
	tb, err := CrossValidation(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if !strings.HasSuffix(row[1], "%") {
			t.Errorf("accuracy cell %q", row[1])
		}
	}
}

func TestTransferAccuracyTable(t *testing.T) {
	s := testSuite(t)
	tb, err := TransferAccuracy(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestThreeClassTable(t *testing.T) {
	s := testSuite(t)
	tb, err := ThreeClass(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFigure10Shape(t *testing.T) {
	s := testSuite(t)
	f, err := Figure10(s)
	if err != nil {
		t.Fatal(err)
	}
	// 2 FATs x 4 BA overheads = 8 panels (paper shows a-h).
	if len(f.Panels) != 8 {
		t.Fatalf("panels = %d", len(f.Panels))
	}
	// 3 policies x 2 flow durations per panel.
	if len(f.Panels[0].Series) != 6 {
		t.Fatalf("series = %d", len(f.Panels[0].Series))
	}
	for _, p := range f.Panels {
		for _, srs := range p.Series {
			for _, v := range srs.X {
				if v < 0 {
					t.Fatal("negative byte difference")
				}
			}
		}
	}
}

func TestFigure11Shape(t *testing.T) {
	s := testSuite(t)
	f, err := Figure11(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Panels) != 8 {
		t.Fatalf("panels = %d", len(f.Panels))
	}
	if len(f.Panels[0].Series) != 3 {
		t.Fatalf("series = %d", len(f.Panels[0].Series))
	}
}

func TestFigure12And13Shape(t *testing.T) {
	s := testSuite(t)
	f12, err := Figure12(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f12.Panels) != 4 {
		t.Fatalf("fig12 panels = %d", len(f12.Panels))
	}
	// 3 policies x 5 scenario groups per panel.
	if len(f12.Panels[0].Groups) != 15 {
		t.Fatalf("fig12 groups = %d", len(f12.Panels[0].Groups))
	}
	for _, p := range f12.Panels {
		for _, g := range p.Groups {
			if g.Stats.Median < 0 || g.Stats.Median > 1.25 {
				t.Errorf("%s/%s: byte ratio median %v", p.Title, g.Label, g.Stats.Median)
			}
		}
	}
	f13, err := Figure13(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13.Panels) != 4 || len(f13.Panels[0].Groups) != 15 {
		t.Fatal("fig13 shape")
	}
	if f13.String() == "" || f12.String() == "" {
		t.Error("empty rendering")
	}
}

func TestTable4Shape(t *testing.T) {
	s := testSuite(t)
	tb, err := Table4(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Columns: label + 5 policies.
	if len(tb.Header) != 6 {
		t.Fatalf("header = %v", tb.Header)
	}
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			if !strings.Contains(cell, "/") {
				t.Errorf("cell %q not duration/stalls", cell)
			}
		}
	}
}

func TestMotivationFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("COTS motivation runs take seconds")
	}
	s := testSuite(t)
	for _, res := range []*MotivationResult{Figure1(s), Figure2(s), Figure3(s)} {
		if res.Phone.BATriggers == 0 {
			t.Errorf("%s: phone never swept", res.Title)
		}
		if res.WithBA <= 0 || res.Locked <= 0 {
			t.Errorf("%s: zero throughput", res.Title)
		}
		if res.String() == "" {
			t.Error("empty rendering")
		}
	}
}

func TestModelFactoriesComplete(t *testing.T) {
	fs := ModelFactories(1)
	for _, name := range modelOrder {
		f, ok := fs[name]
		if !ok {
			t.Fatalf("missing model %s", name)
		}
		if f() == nil {
			t.Fatalf("%s factory returned nil", name)
		}
	}
}

func TestGridCellLabel(t *testing.T) {
	if got := gridCell(sim.BAOverheads[0], sim.FATs[0]); !strings.Contains(got, "500µs") {
		t.Errorf("label = %q", got)
	}
}

func TestFutureWorkTable(t *testing.T) {
	s := testSuite(t)
	tb, err := FutureWork(s, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Blockage timelines alternate impair/recover and must be far more
	// predictable than chance.
	var blockAcc string
	for _, row := range tb.Rows {
		if row[0] == "Blockage" {
			blockAcc = row[3]
		}
	}
	var v float64
	if _, err := fmt.Sscanf(blockAcc, "%f%%", &v); err != nil {
		t.Fatalf("accuracy cell %q", blockAcc)
	}
	if v < 60 {
		t.Errorf("blockage pattern accuracy = %v%%, expected high predictability", v)
	}
}

func TestCSVExports(t *testing.T) {
	s := testSuite(t)
	tb := Table1(s)
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "Scenario,Total,BA,RA") {
		t.Errorf("table CSV header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if !strings.Contains(csv, "Displacement,479") {
		t.Error("table CSV missing data")
	}
	fig := Figure4(s)
	fcsv := fig.CSV()
	if !strings.HasPrefix(fcsv, "panel,series,x,y\n") {
		t.Error("figure CSV header")
	}
	lines := strings.Count(fcsv, "\n")
	if lines < 100 {
		t.Errorf("figure CSV has only %d lines", lines)
	}
	box, err := Figure12(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	bcsv := box.CSV()
	if !strings.HasPrefix(bcsv, "panel,group,min,q1,median,q3,max,mean,n\n") {
		t.Error("box CSV header")
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := &Table{Header: []string{`a,b`, `c"d`}, Rows: [][]string{{"x\ny", "z"}}}
	csv := tb.CSV()
	if !strings.Contains(csv, `"a,b"`) || !strings.Contains(csv, `"c""d"`) || !strings.Contains(csv, "\"x\ny\"") {
		t.Errorf("escaping broken: %q", csv)
	}
}

func TestShapeChecksAllPass(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks take seconds")
	}
	s := testSuite(t)
	table, failures, err := RunShapeChecks(s)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Errorf("%d shape checks failed:\n%s", failures, table)
	}
	if len(table.Rows) < 15 {
		t.Errorf("only %d checks ran", len(table.Rows))
	}
}

func TestFailoverComparisonShape(t *testing.T) {
	s := testSuite(t)
	tb, err := FailoverComparison(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	parse := func(cell string) float64 {
		var v float64
		if _, err := fmt.Sscanf(cell, "%fms", &v); err != nil {
			t.Fatalf("cell %q", cell)
		}
		return v
	}
	// Blockage row: the failover recovers much faster than a full sweep.
	if fo, ba := parse(tb.Rows[0][1]), parse(tb.Rows[0][2]); fo >= ba/2 {
		t.Errorf("blockage: failover %vms not far below BA First %vms", fo, ba)
	}
	// Rotation row: the stale failover loses its advantage (the paper's
	// §8 critique of MOCA's approach).
	if fo, ba := parse(tb.Rows[1][1]), parse(tb.Rows[1][2]); fo <= ba {
		t.Errorf("rotation: failover %vms unexpectedly beats BA First %vms", fo, ba)
	}
}

func TestAlphaSweepCrossover(t *testing.T) {
	s := testSuite(t)
	tb, err := AlphaSweep(s, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(cell string) float64 {
		var v float64
		if _, err := fmt.Sscan(cell, &v); err != nil {
			t.Fatalf("cell %q", cell)
		}
		return v
	}
	first := tb.Rows[0]             // alpha = 0: delay only
	last := tb.Rows[len(tb.Rows)-1] // alpha = 1: throughput only
	if parse(first[2]) <= parse(first[1]) {
		t.Error("at alpha=0 RA First should beat BA First (delay dominates)")
	}
	if parse(last[1]) <= parse(last[2]) {
		t.Error("at alpha=1 BA First should beat RA First (throughput dominates)")
	}
	// LiBRA is never the worst policy at any alpha.
	for _, row := range tb.Rows {
		ba, ra, li := parse(row[1]), parse(row[2]), parse(row[3])
		if li < ba && li < ra {
			t.Errorf("alpha %s: LiBRA %.3f is the worst policy (BA %.3f, RA %.3f)", row[0], li, ba, ra)
		}
	}
}

func TestConfusionReport(t *testing.T) {
	s := testSuite(t)
	tb, err := ConfusionReport(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Diagonal dominance: each class is mostly predicted as itself.
	for i, row := range tb.Rows {
		var diag, total int
		for j := 1; j <= 3; j++ {
			var v int
			if _, err := fmt.Sscan(row[j], &v); err != nil {
				t.Fatalf("cell %q", row[j])
			}
			total += v
			if j-1 == i {
				diag = v
			}
		}
		if total > 0 && diag*2 < total {
			t.Errorf("class %s not diagonally dominant: %d of %d", row[0], diag, total)
		}
	}
}

func TestSectorSparkline(t *testing.T) {
	tl := []cots.SectorSample{
		{Sector: 0}, {Sector: 9}, {Sector: 10}, {Sector: 24}, {Sector: cots.NoSector},
	}
	got := sectorSparkline(tl, 5)
	if got != "09ao*" {
		t.Errorf("sparkline = %q", got)
	}
	if sectorSparkline(nil, 10) != "(empty)" {
		t.Error("empty timeline")
	}
	// Downsampling keeps the requested width.
	long := make([]cots.SectorSample, 500)
	if w := len(sectorSparkline(long, 72)); w != 72 {
		t.Errorf("width = %d", w)
	}
}

// TestSuiteRun covers the orchestrator: named subsets run in canonical
// order, unknown step names fail loudly, Emit streams artifacts, and a
// canceled context stops before the next step.
func TestSuiteRun(t *testing.T) {
	s := testSuite(t)
	var emitted []string
	res, err := s.Run(RunOptions{
		Only: []string{"table2", "fig1"},
		Emit: func(key string, r Result) error {
			emitted = append(emitted, key)
			if r.String() == "" {
				t.Errorf("step %s produced empty output", key)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Key != "fig1" || res[1].Key != "table2" {
		t.Fatalf("results = %+v, want canonical order fig1, table2", res)
	}
	if len(emitted) != 2 {
		t.Fatalf("emit saw %v", emitted)
	}

	if _, err := s.Run(RunOptions{Only: []string{"nosuch"}}); err == nil {
		t.Fatal("unknown step name accepted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done, err := s.RunContext(ctx, RunOptions{Only: []string{"table2"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(done) != 0 {
		t.Fatalf("canceled run completed %d steps", len(done))
	}
}

// TestCrossValidationWorkerInvariant: the CV table is the same whether the
// fold jobs run one at a time or two at once, and equals the pinned table.
func TestCrossValidationWorkerInvariant(t *testing.T) {
	s := testSuite(t)
	s.Main()
	const want = "== §6.2 five-fold cross-validation on the main dataset (1 repetitions) ==\n" +
		"Model  Accuracy  Weighted F1\n" +
		"DT     87.6%     87.1%      \n" +
		"RF     90.6%     90.1%      \n" +
		"SVM    88.2%     87.7%      \n" +
		"DNN    88.0%     87.3%      \n"
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		tb, err := CrossValidation(s, 1)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if got := tb.String(); got != want {
			t.Errorf("GOMAXPROCS=%d: CV table\n%s\nwant\n%s", procs, got, want)
		}
	}
}

// TestRunContextCancelsCV: a cancel during the cv step stops the fold pool
// from starting new jobs, so RunContext returns context.Canceled once the
// jobs in flight finish, not after all 20 repetitions. One repetition of the
// step is the yardstick: the full step runs twenty.
func TestRunContextCancelsCV(t *testing.T) {
	s := testSuite(t)
	t0 := time.Now()
	if _, err := CrossValidation(s, 1); err != nil {
		t.Fatal(err)
	}
	oneRep := time.Since(t0)

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	t0 = time.Now()
	done, err := s.RunContext(ctx, RunOptions{Only: []string{"cv"}, Reps: 20})
	elapsed := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(done) != 0 {
		t.Fatalf("canceled run completed %d steps", len(done))
	}
	if elapsed > 3*oneRep {
		t.Errorf("canceled cv step took %v; one repetition takes %v", elapsed, oneRep)
	}
	t.Logf("canceled after %v; one repetition %v", elapsed, oneRep)
}
