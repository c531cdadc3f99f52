package deadexport_test

import (
	"testing"

	"github.com/libra-wlan/libra/internal/analysis"
	"github.com/libra-wlan/libra/internal/analysis/analysistest"
	"github.com/libra-wlan/libra/internal/analysis/deadexport"
)

func TestDeadExport(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), deadexport.Analyzer, "deadexportfix", "cmddeadexport")
}

// TestPartialLoadSilent: a run narrower than ./... from the module root
// cannot see every referrer, so even a true orphan goes unreported.
func TestPartialLoadSilent(t *testing.T) {
	fix := "./internal/analysis/deadexport/testdata/src/deadexportfix"
	fs, err := analysis.RunN("../../..", []string{fix}, []*analysis.Analyzer{deadexport.Analyzer}, 1)
	if err != nil || len(fs) != 0 {
		t.Errorf("partial load: findings %v, error %v", fs, err)
	}
}
