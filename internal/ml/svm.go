package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kernel selects the SVM kernel. The paper tries "both linear and non-linear
// classification metrics and different regularization parameters" (§6.2).
type Kernel int

// Supported kernels.
const (
	LinearKernel Kernel = iota
	RBFKernel
)

// String returns the kernel name.
func (k Kernel) String() string {
	if k == RBFKernel {
		return "rbf"
	}
	return "linear"
}

// SVM is a support vector machine classifier. Binary problems are solved
// with a simplified SMO solver; multi-class problems use one-vs-rest.
// Features are standardized internally.
type SVM struct {
	// C is the regularization parameter (<=0, -Inf included, means 1). Fit
	// refuses NaN and +Inf: a hard margin on rows no kernel separates has an
	// unbounded dual, and SMO would never stop. A finite C so large that SMO
	// has not converged after 100,000 passes over the samples fails the fit
	// with an error.
	C float64
	// Kernel selects linear or RBF.
	Kernel Kernel
	// Gamma is the RBF width (<=0, -Inf included, means 1/#features). Fit
	// refuses NaN and +Inf.
	Gamma float64
	// MaxPasses bounds SMO passes without alpha changes (<=0 means 5).
	MaxPasses int
	// Tol is the KKT tolerance (<=0, -Inf included, means 1e-3). Fit refuses
	// NaN and +Inf.
	Tol float64
	// Seed makes training deterministic.
	Seed int64

	scaler     *Scaler
	machines   []*binarySVM // one per class (one-vs-rest); single for binary
	numClasses int
}

// binarySVM holds one fitted two-class machine with labels in {-1,+1}.
type binarySVM struct {
	alphaY []float64 // alpha_i * y_i for support vectors
	sv     [][]float64
	b      float64
	kernel Kernel
	gamma  float64
}

func (m *binarySVM) kernelFn(a, b []float64) float64 {
	switch m.kernel {
	case RBFKernel:
		var d float64
		for i := range a {
			t := a[i] - b[i]
			d += t * t
		}
		return math.Exp(-m.gamma * d)
	default:
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
}

// decision returns the signed decision value for x.
func (m *binarySVM) decision(x []float64) float64 {
	s := m.b
	for i, v := range m.sv {
		s += m.alphaY[i] * m.kernelFn(v, x)
	}
	return s
}

// Name implements Classifier.
func (s *SVM) Name() string { return "svm-" + s.Kernel.String() }

// Fit implements Classifier. Fit does not modify the exported configuration
// fields.
func (s *SVM) Fit(d *Dataset) error { return s.fit(d, trainBinary) }

// fit is Fit with the binary solver as a parameter, so that tests can fit
// with the reference solver.
func (s *SVM) fit(d *Dataset, train smoSolver) error {
	if err := d.Validate(); err != nil {
		return err
	}
	switch {
	case math.IsNaN(s.C) || math.IsInf(s.C, 1):
		return fmt.Errorf("ml: SVM.C is %v", s.C)
	case math.IsNaN(s.Gamma) || math.IsInf(s.Gamma, 1):
		return fmt.Errorf("ml: SVM.Gamma is %v", s.Gamma)
	case math.IsNaN(s.Tol) || math.IsInf(s.Tol, 1):
		return fmt.Errorf("ml: SVM.Tol is %v", s.Tol)
	}
	c := s.C
	if c <= 0 {
		c = 1
	}
	maxPasses := s.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 5
	}
	tol := s.Tol
	if tol <= 0 {
		tol = 1e-3
	}
	gamma := s.Gamma
	if gamma <= 0 {
		gamma = 1 / float64(d.NumFeatures())
	}
	s.scaler = FitScaler(d)
	scaled := s.scaler.ApplyAll(d)
	s.numClasses = d.NumClasses()
	rng := rand.New(rand.NewSource(s.Seed ^ 0x53f6))

	if s.numClasses <= 2 {
		y := make([]float64, scaled.Len())
		for i, label := range scaled.Y {
			if label == 1 {
				y[i] = 1
			} else {
				y[i] = -1
			}
		}
		m, err := train(scaled.X, y, s.Kernel, gamma, c, tol, maxPasses, rng)
		if err != nil {
			s.machines = nil // an unfitted SVM predicts class 0
			return err
		}
		s.machines = []*binarySVM{m}
		return nil
	}
	s.machines = make([]*binarySVM, s.numClasses)
	for cls := 0; cls < s.numClasses; cls++ {
		y := make([]float64, scaled.Len())
		for i, label := range scaled.Y {
			if label == cls {
				y[i] = 1
			} else {
				y[i] = -1
			}
		}
		m, err := train(scaled.X, y, s.Kernel, gamma, c, tol, maxPasses, rng)
		if err != nil {
			s.machines = nil
			return err
		}
		s.machines[cls] = m
	}
	return nil
}

// smoSolver trains one binary machine on standardized rows with labels in
// {-1,+1}.
type smoSolver func(x [][]float64, y []float64, kernel Kernel, gamma, c, tol float64, maxPasses int, rng *rand.Rand) (*binarySVM, error)

// maxSMOPasses caps SMO's outer passes over the samples in one machine's
// fit. A large C on rows no kernel separates keeps SMO finding alpha
// changes for millions of passes or for ever; the paper battery's fits take
// at most 1,849 passes (suite seeds 42, 7 and 1) and the package tests' at
// most 2,344.
const maxSMOPasses = 100_000

// errSMOPasses is the error a fit that reaches maxSMOPasses returns.
func errSMOPasses(c float64) error {
	return fmt.Errorf("ml: SVM fit not converged after %d SMO passes at C = %v", maxSMOPasses, c)
}

// trainBinary runs simplified SMO (Platt 1998 / Stanford CS229 variant) and
// returns, bit for bit, the machine of the plain solver that sums every
// sample's decision value on every pass, while summing one only where a
// branch needs it.
//
// F_k, the decision value, is b plus alpha_j*y_j*K_jk over the nonzero
// alphas, accumulated from b in ascending j (exactF). The solver keeps a
// running approximation g_k of every F_k, moved in O(n) from kernel rows i
// and j after each alpha change, and a width w with F_k in [g_k-w, g_k+w].
//
//   - Enclosure. Let m = len(active), kmax = max|K|, u = 2^-53 and R_k the
//     exact real value of b + sum alpha_j*y_j*K_jk over the stored floats.
//     As |alpha_j| <= C up to rounding, |R_k| <= S = |b| + m*2C*kmax, and
//     recursive summation gives |F_k - R_k| <= gamma_{m+2}*S, with gamma_n =
//     n*u/(1-n*u). ge bounds |g_k - R_k|, so |g_k| <= S + ge. A change that
//     moves alpha_i*y_i by dI, alpha_j*y_j by dJ and b by dB grows ge by
//     8u*((|dI|+|dJ|)*kmax + |dB| + S + ge), about twice what the update's
//     roundings can reach. The width w doubles ge + gamma_{m+2}*S and adds
//     4u*(S+ge) and 2^-1000, which covers the rounding of the bound's own
//     arithmetic, of g_k±w, and of underflow.
//   - Monotonicity. Under round-to-nearest every float operation between F
//     and a branch is monotone in its operand: F-y, ei-ej, y_j*d, /eta with
//     the fixed eta < 0, aj-q, the clip to [lo, hi] and ajNew-aj. Run at the
//     interval's two ends, they bound the value the plain solver computes.
//   - Convexity. Each branch turns on an interval or on the union of two
//     rays: the KKT "satisfied" set ([-tol, tol], or a ray while alpha sits
//     at a bound) and the small-step window |ajNew-aj| < 1e-5. A branch that
//     agrees at both ends of the interval, within one ray, is settled;
//     otherwise, and on every real change, the solver sums F_i and F_j
//     exactly and runs the plain arithmetic.
//   - Order. rng.Intn is drawn exactly at each violation. The lo == hi and
//     eta >= 0 exits need no F, so they run ahead of the partner's sum,
//     which has no observable side effect.
//
// A bound that is not finite, or so large (2^1000) that g might overflow,
// settles nothing from then on: ge becomes +Inf and every branch takes the
// exact path. (A NaN bound, which C = +Inf would give as 0*Inf with no
// nonzero alpha, would pass every KKT test; Fit refuses that C.)
//
// Training stops outright once a pass sees no KKT violation, since every
// further pass would change nothing and consume no randomness, and fails
// after maxSMOPasses passes.
func trainBinary(x [][]float64, y []float64, kernel Kernel, gamma, c, tol float64, maxPasses int, rng *rand.Rand) (*binarySVM, error) {
	const u = 0x1p-53 // unit roundoff
	n := len(x)
	m := &binarySVM{kernel: kernel, gamma: gamma}
	alpha := make([]float64, n)
	b := 0.0

	// Precompute the kernel matrix (datasets here are <= a few thousand
	// samples) and its largest magnitude.
	k := make([][]float64, n)
	kmax := 0.0
	for i := 0; i < n; i++ {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := m.kernelFn(x[i], x[j])
			k[i][j] = v
			k[j][i] = v
			kmax = max(kmax, math.Abs(v))
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
	exactF := func(i int) float64 {
		s := b
		ki := k[i]
		av := actAY[:len(active)]
		for t, j := range active {
			s += av[t] * ki[j]
		}
		return s
	}

	// g[k] approximates F_k: |g[k] - R_k| <= ge and |R_k| <= rmax (S above).
	// rebound grows ge by a change of size d and derives the width w; sure
	// reports that w is finite.
	g := make([]float64, n)
	var ge, rmax, w float64
	sure := false
	rebound := func(d float64) {
		ge += 8 * u * d
		mf := float64(len(active))
		rmax = math.Abs(b) + mf*2*c*kmax
		if !(d+rmax+ge < 0x1p1000) {
			ge = math.Inf(1) // NaN, or g may overflow: settle nothing from here on
		}
		w = 2*(ge+(mf+2)*u/(1-(mf+2)*u)*rmax) + 4*u*(rmax+ge) + 0x1p-1000
		sure = w < math.Inf(1)
	}
	rebound(0)

	passes := 0
	for total := 0; passes < maxPasses; total++ {
		if total == maxSMOPasses {
			return nil, errSMOPasses(c)
		}
		changed, violated := 0, 0
		for i := 0; i < n; i++ {
			// Run the KKT test over ei's interval, or at its exact value
			// when the interval holds both outcomes.
			yi, ai := y[i], alpha[i]
			eiLo, eiHi := g[i]-w-yi, g[i]+w-yi
			verdict, exactI := 0, false
			if sure {
				verdict = kktVerdict(yi, ai, eiLo, eiHi, c, tol)
			}
			if verdict == 0 {
				eiLo = exactF(i) - yi
				eiHi, exactI = eiLo, true
				verdict = kktVerdict(yi, ai, eiLo, eiHi, c, tol)
			}
			if verdict < 0 {
				continue
			}
			violated++
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			yj, aj := y[j], alpha[j]
			var lo, hi float64
			if yi != yj {
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
			// A step inside the small-step window at both corners of the
			// (ei, ej) box is inside it everywhere: nothing changes.
			if sure {
				ejLo, ejHi := g[j]-w-yj, g[j]+w-yj
				_, d1 := smoStep(eiLo, ejHi, yj, aj, eta, lo, hi)
				_, d2 := smoStep(eiHi, ejLo, yj, aj, eta, lo, hi)
				if math.Abs(d1) < 1e-5 && math.Abs(d2) < 1e-5 {
					continue
				}
			}
			// The exact path: the plain solver's arithmetic on exact errors.
			ei := eiLo
			if !exactI {
				ei = exactF(i) - yi
			}
			ej := exactF(j) - yj
			ajNew, d := smoStep(ei, ej, yj, aj, eta, lo, hi)
			if math.Abs(d) < 1e-5 {
				continue
			}
			aiNew := ai + yi*yj*(aj-ajNew)
			setAlpha(j, ajNew)
			setAlpha(i, aiNew)
			b1 := b - ei - yi*(aiNew-ai)*k[i][i] - yj*(ajNew-aj)*k[i][j]
			b2 := b - ej - yi*(aiNew-ai)*k[i][j] - yj*(ajNew-aj)*k[j][j]
			bOld := b
			switch {
			case aiNew > 0 && aiNew < c:
				b = b1
			case ajNew > 0 && ajNew < c:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			changed++

			// Move every g_k by the change.
			dI, dJ, dB := yi*(aiNew-ai), yj*(ajNew-aj), b-bOld
			ki, kj := k[i][:n], k[j][:n]
			for t := range g {
				g[t] += dI*ki[t] + dJ*kj[t] + dB
			}
			rebound((math.Abs(dI)+math.Abs(dJ))*kmax + math.Abs(dB) + rmax + ge)
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

// kktVerdict runs SMO's KKT test for a sample with label yi and multiplier
// ai at every error value in [lo, hi]: 1 if it flags a violation at all of
// them, -1 if at none, 0 if the interval holds both outcomes. At lo == hi it
// is the plain test (a NaN error flags nothing).
func kktVerdict(yi, ai, lo, hi, c, tol float64) int {
	if yi < 0 {
		lo, hi = -hi, -lo
	}
	switch {
	case (hi < -tol && ai < c) || (lo > tol && ai > 0):
		return 1
	case (lo < -tol && ai < c) || (hi > tol && ai > 0):
		return 0
	}
	return -1
}

// smoStep is SMO's clipped update of alpha_j for errors ei and ej, and its
// change ajNew - aj.
func smoStep(ei, ej, yj, aj, eta, lo, hi float64) (ajNew, d float64) {
	ajNew = aj - yj*(ei-ej)/eta
	if ajNew > hi {
		ajNew = hi
	} else if ajNew < lo {
		ajNew = lo
	}
	return ajNew, ajNew - aj
}

// Predict implements Classifier.
func (s *SVM) Predict(x []float64) int {
	if len(s.machines) == 0 {
		return 0
	}
	xs := s.scaler.Apply(x)
	return s.predictScaled(xs)
}

// predictScaled classifies an already-standardized feature vector.
func (s *SVM) predictScaled(xs []float64) int {
	if s.numClasses <= 2 {
		if s.machines[0].decision(xs) >= 0 {
			return 1
		}
		return 0
	}
	best, bestV := 0, math.Inf(-1)
	for c, m := range s.machines {
		if v := m.decision(xs); v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// PredictBatch implements BatchPredictor: it classifies every row of X into
// out (reused when its capacity suffices), standardizing each row into one
// shared scratch vector so no per-sample allocation remains.
func (s *SVM) PredictBatch(X [][]float64, out []int) []int {
	out = resizeInts(out, len(X))
	if len(s.machines) == 0 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	xs := make([]float64, len(s.scaler.Mean))
	for i, x := range X {
		s.scaler.ApplyInto(x, xs)
		out[i] = s.predictScaled(xs)
	}
	return out
}
