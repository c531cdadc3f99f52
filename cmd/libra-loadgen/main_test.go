package main

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/obs/decisionlog"
	"github.com/libra-wlan/libra/internal/serve"
)

// TestMain lets a test re-run this binary as the libra-loadgen command itself.
func TestMain(m *testing.M) {
	if os.Getenv("LIBRA_LOADGEN_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNothingToMeasureFails: no workers, no timed requests or a negative
// warm-up is refused with an error naming the flag, before the campaign is
// generated, never reported as an empty run that exits 0.
func TestNothingToMeasureFails(t *testing.T) {
	for _, args := range [][]string{{"-c", "0"}, {"-n", "0"}, {"-warmup", "-1"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "LIBRA_LOADGEN_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("%s %s: err = %v, want a non-zero exit", args[0], args[1], err)
		}
		if !strings.Contains(string(out), args[0]+" ") || strings.Contains(string(out), "generating") {
			t.Errorf("%s %s: want an error naming the flag before the campaign, got:\n%s", args[0], args[1], out)
		}
	}
}

// TestFeedbackFencedBeforeReturn: driveBinary returns only after the server
// has read every feedback frame, so a server shut down right after it (as
// libra-serve drains on SIGTERM) seals an audit log with a truth record for
// every sampled decision, and the log's canonical digest does not depend on
// the worker count.
func TestFeedbackFencedBeforeReturn(t *testing.T) {
	const (
		seed     = 42
		n        = 4000
		sample   = 4
		pipeline = 16
	)
	camp := dataset.GenerateTest(seed)
	rf := &ml.RandomForest{NumTrees: 10, MaxDepth: 6, Seed: seed}
	if err := rf.Fit(camp.ToML(true)); err != nil {
		t.Fatal(err)
	}
	q, err := rf.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	replay := serve.NewReplay(camp, seed)
	wantSampled := 0
	for g := 0; g < n; g++ {
		if decisionlog.Sampled(sample, uint64(g), uint64(g%replay.Len())) {
			wantSampled++
		}
	}

	digests := make(map[int][32]byte)
	for _, conc := range []int{8, 3} {
		path := filepath.Join(t.TempDir(), "audit.ldl")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		alog, err := decisionlog.New(f, decisionlog.Config{NFeat: dataset.NumFeatures, Rings: 2, Sample: sample})
		if err != nil {
			t.Fatal(err)
		}
		reg := serve.NewRegistry()
		reg.Install("loadgen-test", q)
		rt := serve.NewRouter(reg, serve.RouterConfig{Shards: 2})
		rt.SetAudit(alog)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.NewBinaryServer(rt, 0)
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()

		res, err := driveBinary(ln.Addr().String(), replay, conc, n, 0, pipeline, true)
		// Shut down in libra-serve's drain order: listener, shards, log.
		srv.Close()
		rt.Close()
		if cerr := alog.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if cerr := f.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if serr := <-served; serr != nil {
			t.Fatal(serr)
		}
		if err != nil {
			t.Fatalf("c=%d: %v", conc, err)
		}
		if res.requests != n || res.errors != 0 {
			t.Fatalf("c=%d: %d requests, %d errors; want %d, 0", conc, res.requests, res.errors, n)
		}

		ld, err := decisionlog.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if ld.Drops != 0 {
			t.Fatalf("c=%d: %d ring drops", conc, ld.Drops)
		}
		decided := make(map[uint64]bool)
		truths := 0
		for _, r := range ld.Records {
			switch r.Kind {
			case decisionlog.KindDecision:
				decided[r.ReqID] = true
			case decisionlog.KindTruth:
				truths++
			}
		}
		for _, r := range ld.Records {
			if r.Kind == decisionlog.KindTruth && !decided[r.ReqID] {
				t.Errorf("c=%d: truth for req %d, which has no decision record", conc, r.ReqID)
			}
		}
		if len(decided) != wantSampled || truths != wantSampled {
			t.Fatalf("c=%d: %d decisions and %d truths, want %d of each", conc, len(decided), truths, wantSampled)
		}
		digests[conc] = decisionlog.CanonicalDigest(ld.Records, ld.NFeat)
	}
	if digests[8] != digests[3] {
		t.Fatalf("canonical digest differs across worker counts: c=8 %x, c=3 %x", digests[8], digests[3])
	}
}
