package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as the libra-serve command itself.
func TestMain(m *testing.M) {
	if os.Getenv("LIBRA_SERVE_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestModelCycleFailsCleanly: a -model whose tree is a two-node cycle is
// refused at start-up through the normal error exit. A recursive loader
// would overflow the goroutine stack on it, a fatal error no recover can
// catch, so the case runs in a child process.
func TestModelCycleFailsCleanly(t *testing.T) {
	model := filepath.Join(t.TempDir(), "cycle.bin")
	const artifact = "libra-model v2 random-forest\n" +
		`{"version":1,"num_classes":3,"trees":[{"nodes":[` +
		`{"leaf":false,"left":1,"right":1},{"leaf":false,"left":0,"right":0}]}]}` + "\n"
	if err := os.WriteFile(model, []byte(artifact), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-model", model, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "LIBRA_SERVE_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok || ctx.Err() != nil {
		t.Fatalf("err = %v, want a non-zero exit; output:\n%s", err, out)
	}
	for _, bad := range []string{"panic:", "fatal error"} {
		if strings.Contains(string(out), bad) {
			t.Fatalf("want a clean error exit, got:\n%s", out)
		}
	}
	if !strings.Contains(string(out), "loading "+model) {
		t.Errorf("error does not name the model file:\n%s", out)
	}
}
