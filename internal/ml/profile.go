package ml

import (
	"fmt"

	"github.com/libra-wlan/libra/internal/obs/drift"
)

// ReferenceProfile freezes d's feature and label distributions into a drift
// reference: equal-frequency bin edges and per-bin proportions for every
// feature column, plus the class distribution. The serve fleet and the
// offline reporter compare live decision traffic against it, so it must be
// built from exactly the dataset the deployed model was fitted on.
func ReferenceProfile(name string, d *Dataset, bins int) (*drift.Profile, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: reference profile needs a non-empty dataset")
	}
	nf := d.NumFeatures()
	names := d.FeatureNames
	if len(names) != nf {
		names = make([]string, nf)
		for i := range names {
			names[i] = fmt.Sprintf("f%d", i)
		}
	}
	cols := make([][]float64, nf)
	for f := range cols {
		col := make([]float64, d.Len())
		for i, row := range d.X {
			col[i] = row[f]
		}
		cols[f] = col
	}
	return drift.BuildProfile(name, names, cols, d.Y, d.NumClasses(), bins)
}
