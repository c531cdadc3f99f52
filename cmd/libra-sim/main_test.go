package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the libra-sim command itself.
func TestMain(m *testing.M) {
	if os.Getenv("LIBRA_SIM_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadDurationFlagsFailCleanly: a non-positive flow, FAT or BA overhead
// is reported through the normal error exit before the classifier trains,
// never as a panic.
func TestBadDurationFlagsFailCleanly(t *testing.T) {
	for _, flag := range []string{"-flow", "-fat", "-ba"} {
		cmd := exec.Command(os.Args[0], flag, "0")
		cmd.Env = append(os.Environ(), "LIBRA_SIM_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("%s 0: err = %v, want a non-zero exit", flag, err)
		}
		if strings.Contains(string(out), "panic:") || strings.Contains(string(out), "training") {
			t.Errorf("%s 0: want a clean error before training, got:\n%s", flag, out)
		}
	}
}
