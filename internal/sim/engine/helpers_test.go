package engine

import (
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/sim"
)

// fixedClf always answers the same action.
type fixedClf struct{ act dataset.Action }

func (f fixedClf) Classify([]float64) dataset.Action { return f.act }
func (f fixedClf) Name() string                      { return "fixed" }

func stdParams() sim.Params {
	return sim.Params{
		BAOverhead: 5 * time.Millisecond,
		FAT:        2 * time.Millisecond,
		FlowDur:    time.Second,
	}
}
