package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// trainBinaryReference is the SMO solver trainBinary replaced, kept verbatim
// but for the pass cap (maxSMOPasses) the two share, as the reference its
// machines must match bit for bit: it reads every
// sample's decision value on every pass, through a per-epoch cache that the
// four-chain block fill refills after each change.
//
// It runs simplified SMO (Platt 1998 / Stanford CS229 variant). The
// decision-value sum iterates a sorted active set of nonzero alphas with
// alpha_j*y_j precomputed — the same terms in the same ascending-j order as
// a full scan, so the trained machine is bit-identical to one — and training
// stops outright once a pass sees no KKT violation, since every further pass
// would change nothing and consume no randomness.
func trainBinaryReference(x [][]float64, y []float64, kernel Kernel, gamma, c, tol float64, maxPasses int, rng *rand.Rand) (*binarySVM, error) {
	n := len(x)
	m := &binarySVM{kernel: kernel, gamma: gamma}
	alpha := make([]float64, n)
	b := 0.0

	// Precompute the kernel matrix (datasets here are <= a few thousand
	// samples).
	k := make([][]float64, n)
	for i := 0; i < n; i++ {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := m.kernelFn(x[i], x[j])
			k[i][j] = v
			k[j][i] = v
		}
	}

	// The active set lists samples with alpha != 0 in ascending order; actAY
	// packs the matching alpha_j*y_j values so the decision sum reads them
	// sequentially and only the kernel row is gathered.
	active := make([]int32, 0, n)
	actAY := make([]float64, 0, n)
	setAlpha := func(i int, v float64) {
		was := alpha[i] != 0
		alpha[i] = v
		now := v != 0
		if !was && !now {
			return
		}
		pos := sort.Search(len(active), func(p int) bool { return active[p] >= int32(i) })
		switch {
		case was && now:
			actAY[pos] = v * y[i]
		case now:
			active = append(active, 0)
			actAY = append(actAY, 0)
			copy(active[pos+1:], active[pos:])
			copy(actAY[pos+1:], actAY[pos:])
			active[pos] = int32(i)
			actAY[pos] = v * y[i]
		default:
			active = append(active[:pos], active[pos+1:]...)
			actAY = append(actAY[:pos], actAY[pos+1:]...)
		}
	}
	// f values are cached per epoch: any alpha or b update bumps the epoch,
	// so a cached value is only ever reused while the solver state is exactly
	// the state it was computed under. Stagnant passes (the convergence tail,
	// where nothing changes for several full scans) then cost one comparison
	// per sample instead of a full kernel-row sum.
	fcache := make([]float64, n)
	fEpoch := make([]int, n)
	epoch := 1
	f := func(i int) float64 {
		if fEpoch[i] == epoch {
			return fcache[i]
		}
		s := b
		ki := k[i]
		av := actAY[:len(active)]
		for t, j := range active {
			s += av[t] * ki[j]
		}
		fcache[i] = s
		fEpoch[i] = epoch
		return s
	}

	// fill4 computes f for up to four stale samples at and after i0 in one
	// pass over the active set. Each sample accumulates in its own chain in
	// the same ascending order as f, so every stored value is bit-identical
	// to an on-demand computation; the four independent chains merely hide
	// FP-add latency, which bounds this loop.
	fill4 := func(i0 int) {
		var ids [4]int
		cnt := 0
		for w := i0; w < n && cnt < 4; w++ {
			if fEpoch[w] != epoch {
				ids[cnt] = w
				cnt++
			}
		}
		for t := cnt; t < 4; t++ {
			ids[t] = ids[cnt-1]
		}
		k0, k1, k2, k3 := k[ids[0]], k[ids[1]], k[ids[2]], k[ids[3]]
		s0, s1, s2, s3 := b, b, b, b
		av := actAY[:len(active)]
		for t, j := range active {
			a := av[t]
			s0 += a * k0[j]
			s1 += a * k1[j]
			s2 += a * k2[j]
			s3 += a * k3[j]
		}
		fcache[ids[0]], fEpoch[ids[0]] = s0, epoch
		fcache[ids[1]], fEpoch[ids[1]] = s1, epoch
		fcache[ids[2]], fEpoch[ids[2]] = s2, epoch
		fcache[ids[3]], fEpoch[ids[3]] = s3, epoch
	}

	passes := 0
	for total := 0; passes < maxPasses; total++ {
		if total == maxSMOPasses {
			return nil, errSMOPasses(c)
		}
		changed, violated := 0, 0
		for i := 0; i < n; i++ {
			if fEpoch[i] != epoch {
				fill4(i)
			}
			ei := fcache[i] - y[i]
			if (y[i]*ei < -tol && alpha[i] < c) || (y[i]*ei > tol && alpha[i] > 0) {
				violated++
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				ej := f(j) - y[j]
				ai, aj := alpha[i], alpha[j]
				var lo, hi float64
				if y[i] != y[j] {
					lo = math.Max(0, aj-ai)
					hi = math.Min(c, c+aj-ai)
				} else {
					lo = math.Max(0, ai+aj-c)
					hi = math.Min(c, ai+aj)
				}
				if lo == hi {
					continue
				}
				eta := 2*k[i][j] - k[i][i] - k[j][j]
				if eta >= 0 {
					continue
				}
				ajNew := aj - y[j]*(ei-ej)/eta
				if ajNew > hi {
					ajNew = hi
				} else if ajNew < lo {
					ajNew = lo
				}
				if math.Abs(ajNew-aj) < 1e-5 {
					continue
				}
				aiNew := ai + y[i]*y[j]*(aj-ajNew)
				setAlpha(j, ajNew)
				setAlpha(i, aiNew)
				b1 := b - ei - y[i]*(aiNew-ai)*k[i][i] - y[j]*(ajNew-aj)*k[i][j]
				b2 := b - ej - y[i]*(aiNew-ai)*k[i][j] - y[j]*(ajNew-aj)*k[j][j]
				switch {
				case aiNew > 0 && aiNew < c:
					b = b1
				case ajNew > 0 && ajNew < c:
					b = b2
				default:
					b = (b1 + b2) / 2
				}
				epoch++
				changed++
			}
		}
		if changed == 0 {
			if violated == 0 {
				// Fully KKT-feasible: every remaining pass would see the
				// same decision values, change nothing, and draw no random
				// partners, so the outcome is already final.
				break
			}
			passes++
		} else {
			passes = 0
		}
	}

	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			m.alphaY = append(m.alphaY, alpha[i]*y[i])
			m.sv = append(m.sv, x[i])
		}
	}
	m.b = b
	return m, nil
}

// TestSVMSolverParity: trainBinary fits the machines the reference solver
// fits, bit for bit, with both kernels and soft margins on 200-row sets, and
// with a C so large that no bound settles a branch on 120-row sets.
func TestSVMSolverParity(t *testing.T) {
	cases := []struct {
		rows int
		svm  SVM
	}{
		{200, SVM{Kernel: RBFKernel, C: 4, MaxPasses: 3}},
		{200, SVM{Kernel: LinearKernel, C: 1}},
		{120, SVM{Kernel: RBFKernel, C: 1e300, Gamma: 0.5}},
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, tc := range cases {
			d := wideData(tc.rows, 3+int(seed)%4, 2+int(seed)%2, seed)
			got, want := tc.svm, tc.svm
			got.Seed, want.Seed = seed, seed
			if err := got.Fit(d); err != nil {
				t.Fatal(err)
			}
			if err := want.fit(d, trainBinaryReference); err != nil {
				t.Fatal(err)
			}
			if g, w := svmDigest(&got), svmDigest(&want); g != w {
				t.Errorf("seed %d %s C=%v: machines %s (support vectors %v), reference %s (%v)",
					seed, got.Name(), got.C, g, svCounts(&got), w, svCounts(&want))
			}
		}
	}
}
