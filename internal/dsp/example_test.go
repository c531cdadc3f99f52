package dsp_test

import (
	"fmt"

	"github.com/libra-wlan/libra/internal/dsp"
)

func ExampleFFTRealInto() {
	// A two-tap channel: the frequency response magnitude ripples.
	pdp := make([]float64, 8)
	pdp[0] = 1.0
	pdp[4] = 1.0
	mag := dsp.FFTRealInto(nil, pdp)
	fmt.Printf("%.0f %.0f %.0f\n", mag[0], mag[1], mag[2])
	// Output: 2 0 2
}

func ExamplePearson() {
	x := []float64{1, 2, 3, 4}
	y := []float64{10, 20, 30, 40}
	fmt.Printf("%.2f\n", dsp.Pearson(x, y))
	// Output: 1.00
}

func ExampleNewCDF() {
	c := dsp.NewCDF([]float64{1, 2, 2, 4})
	fmt.Printf("median = %.1f, p90 = %.1f\n", c.Quantile(0.5), c.Quantile(0.9))
	// Output: median = 2.0, p90 = 3.4
}

func ExampleBox() {
	b := dsp.Box([]float64{1, 2, 3, 4, 5})
	fmt.Printf("median %.0f of %d samples\n", b.Median, b.N)
	// Output: median 3 of 5 samples
}
