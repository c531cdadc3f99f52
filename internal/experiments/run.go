package experiments

import (
	"context"
	"fmt"
	"time"
)

// This file is the suite orchestrator: a single entry point that runs the
// whole paper-reproduction battery (or a named subset) in canonical order,
// with cooperative cancellation between experiments. cmd/libra-figures is a
// thin shell around it; embedders get the same battery programmatically.

// NamedResult pairs a step key with its artifact.
type NamedResult struct {
	Key    string
	Result Result
}

// RunOptions configures Suite.Run.
type RunOptions struct {
	// Only restricts the run to the named steps (nil or empty = all).
	// Unknown names are an error, so typos fail loudly.
	Only []string
	// Reps is the number of cross-validation repetitions for the "cv" step
	// (<= 0 selects 20; the paper uses 500).
	Reps int
	// Timelines is the number of random timelines per scenario kind for
	// the multi-impairment steps (<= 0 selects TimelinesPerKind).
	Timelines int
	// Emit, when non-nil, receives each artifact as soon as its step
	// completes (streaming output); a non-nil return aborts the run.
	Emit func(key string, res Result) error
}

// suiteStep is one entry of the canonical battery.
type suiteStep struct {
	key string
	run func(ctx context.Context, s *Suite, opt RunOptions) (Result, error)
}

// suiteSteps lists every experiment in canonical order: motivation,
// datasets, metric CDFs, the ML study, and the trace-driven evaluation.
var suiteSteps = []suiteStep{
	{"fig1", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Figure1(s), nil }},
	{"fig2", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Figure2(s), nil }},
	{"fig3", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Figure3(s), nil }},
	{"table1", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Table1(s), nil }},
	{"table2", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Table2(s), nil }},
	{"fig4", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Figure4(s), nil }},
	{"fig5", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Figure5(s), nil }},
	{"fig6", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Figure6(s), nil }},
	{"fig7", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Figure7(s), nil }},
	{"fig8", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Figure8(s), nil }},
	{"fig9", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Figure9(s), nil }},
	{"cv", func(ctx context.Context, s *Suite, opt RunOptions) (Result, error) {
		return crossValidation(ctx, s, opt.Reps)
	}},
	{"transfer", func(ctx context.Context, s *Suite, _ RunOptions) (Result, error) { return transferAccuracy(ctx, s) }},
	{"table3", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Table3(s) }},
	{"threeclass", func(ctx context.Context, s *Suite, _ RunOptions) (Result, error) { return threeClass(ctx, s) }},
	{"futurework", func(_ context.Context, s *Suite, opt RunOptions) (Result, error) { return FutureWork(s, opt.Timelines) }},
	{"failover", func(_ context.Context, s *Suite, opt RunOptions) (Result, error) {
		return FailoverComparison(s, opt.Timelines/2)
	}},
	{"alphasweep", func(_ context.Context, s *Suite, opt RunOptions) (Result, error) {
		return AlphaSweep(s, 150*time.Millisecond)
	}},
	{"fig10", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Figure10(s) }},
	{"fig11", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return Figure11(s) }},
	{"fig12", func(_ context.Context, s *Suite, opt RunOptions) (Result, error) { return Figure12(s, opt.Timelines) }},
	{"fig13", func(_ context.Context, s *Suite, opt RunOptions) (Result, error) { return Figure13(s, opt.Timelines) }},
	{"table4", func(_ context.Context, s *Suite, opt RunOptions) (Result, error) { return Table4(s, opt.Timelines) }},
	{"multiap", func(_ context.Context, s *Suite, _ RunOptions) (Result, error) { return MultiAP(s) }},
}

// StepKeys returns the canonical step order accepted by RunOptions.Only.
func StepKeys() []string {
	keys := make([]string, len(suiteSteps))
	for i, st := range suiteSteps {
		keys[i] = st.key
	}
	return keys
}

// Run executes the battery (or the subset named in opt.Only) in canonical
// order and returns the completed artifacts.
//
//lint:ignore deadexport perfbench's reproduce workload, a separate module, runs the battery with it
func (s *Suite) Run(opt RunOptions) ([]NamedResult, error) {
	return s.RunContext(context.Background(), opt)
}

// RunContext is Run with cooperative cancellation between experiments: a
// canceled ctx stops before the next step and returns the artifacts already
// completed alongside ctx's error. The ML steps (cv, transfer, threeclass)
// also stop starting fold and fit jobs on their pool, wait for the jobs in
// flight, and return at once.
func (s *Suite) RunContext(ctx context.Context, opt RunOptions) ([]NamedResult, error) {
	if opt.Reps <= 0 {
		opt.Reps = 20
	}
	if opt.Timelines <= 0 {
		opt.Timelines = TimelinesPerKind
	}
	want := map[string]bool{}
	for _, k := range opt.Only {
		want[k] = true
	}
	known := map[string]bool{}
	for _, st := range suiteSteps {
		known[st.key] = true
	}
	for k := range want {
		if !known[k] {
			return nil, fmt.Errorf("experiments: unknown step %q", k)
		}
	}

	var done []NamedResult
	for _, st := range suiteSteps {
		if len(want) > 0 && !want[st.key] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return done, err
		}
		res, err := st.run(ctx, s, opt)
		if err != nil {
			return done, fmt.Errorf("experiments: step %s: %w", st.key, err)
		}
		done = append(done, NamedResult{Key: st.key, Result: res})
		if opt.Emit != nil {
			if err := opt.Emit(st.key, res); err != nil {
				return done, err
			}
		}
	}
	return done, nil
}
