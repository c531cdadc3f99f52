package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/sim"
)

// gridSpec is an 8-AP grid deployment: every station sees seven
// interferers, so each penalty row has seven entries to pin.
func gridSpec() Spec {
	return Spec{
		APs: 8, Stations: 32,
		Duration: 200 * time.Millisecond,
		Seed:     7,
		Params:   stdParams(),
		Policy:   sim.BAFirst,
	}
}

// scenarioDigest hashes every bit Build derives for the handoff rule and the
// interference model: the clear best pair and its SNR per (station, AP), the
// penalty of every (station, serving, interfering) triple, and the initial
// AP. Penalties reach the run digest only where slot windows overlap, so a
// wrong penalty can leave TestGoldenDigest green; this pins them directly.
func scenarioDigest(sc *Scenario) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for s := range sc.bestSNR {
		for a := range sc.bestSNR[s] {
			put(math.Float64bits(sc.bestSNR[s][a]))
			put(uint64(sc.bestTx[s][a]))
			put(uint64(sc.bestRx[s][a]))
			for _, p := range sc.penaltyDB[s][a] {
				put(math.Float64bits(p))
			}
		}
		put(uint64(sc.initialAP[s]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// buildAt builds spec with GOMAXPROCS set to procs for the duration.
func buildAt(t *testing.T, spec Spec, procs int) *Scenario {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	sc, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestBuildTracesEachLinkOnce: Build ray-traces each station-AP link once,
// and prices every interference penalty from those traces — AP b reaches
// station s along link s-b's rays — without tracing an interferer.
func TestBuildTracesEachLinkOnce(t *testing.T) {
	traces := obs.Default.Counter("libra_channel_ray_traces_total", "")
	intf := obs.Default.Counter("libra_channel_interferer_traces_total", "")
	spec := gridSpec()
	t0, i0 := traces.Value(), intf.Value()
	if _, err := Build(spec); err != nil {
		t.Fatal(err)
	}
	if got, want := traces.Value()-t0, uint64(spec.APs*spec.Stations); got != want {
		t.Errorf("Build ran %d link traces, want %d", got, want)
	}
	if got := intf.Value() - i0; got != 0 {
		t.Errorf("Build ran %d interferer traces, want 0", got)
	}
}

// TestScenarioPinned pins the built Scenario bit for bit, and requires Build
// to produce the same Scenario whatever GOMAXPROCS it runs under.
func TestScenarioPinned(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"golden", goldenSpec(), "99be746a7d2a917a7e9590221e8920ad004a94b178c0d6062b22bf4bf5624e8a"},
		{"grid8", gridSpec(), "80ff60c7eadc7b2c740229428d05341e011397f2b6e9673fad71ba300b002c70"},
	}
	for _, tc := range cases {
		one := buildAt(t, tc.spec, 1)
		four := buildAt(t, tc.spec, 4)
		if !reflect.DeepEqual(one, four) {
			t.Errorf("%s: Scenario built at GOMAXPROCS 1 differs from GOMAXPROCS 4", tc.name)
		}
		if got := scenarioDigest(one); got != tc.want {
			t.Errorf("%s: scenario digest %s != pinned %s", tc.name, got, tc.want)
		}
	}
}
