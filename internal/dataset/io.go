package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The paper's dataset is publicly released; this file provides the
// equivalent for the emulated campaigns: a versioned JSON container that
// round-trips every entry (features, labels, and the per-MCS throughput
// tables the simulator replays) plus the site registry behind the position
// counts of Tables 1-2.

// ioFormatVersion guards the serialization schema.
const ioFormatVersion = 1

// campaignJSON is the on-disk container.
type campaignJSON struct {
	Version int      `json:"version"`
	Name    string   `json:"name"`
	Entries []*Entry `json:"entries"`
	Sites   []Site   `json:"sites"`
}

// WriteJSON serializes the campaign.
func (c *Campaign) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(campaignJSON{
		Version: ioFormatVersion,
		Name:    c.Name,
		Entries: c.Entries,
		Sites:   c.Sites,
	}); err != nil {
		return fmt.Errorf("dataset: encoding campaign: %w", err)
	}
	return bw.Flush()
}

// ReadJSON deserializes a campaign written by WriteJSON.
func ReadJSON(r io.Reader) (*Campaign, error) {
	var cj campaignJSON
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&cj); err != nil {
		return nil, fmt.Errorf("dataset: decoding campaign: %w", err)
	}
	if cj.Version != ioFormatVersion {
		return nil, fmt.Errorf("dataset: unsupported format version %d (want %d)", cj.Version, ioFormatVersion)
	}
	c := &Campaign{
		Dataset: Dataset{Name: cj.Name, Entries: cj.Entries},
		Sites:   cj.Sites,
	}
	if err := c.Check(); err != nil {
		return nil, err
	}
	return c, nil
}

// Check validates structural invariants of a (possibly deserialized)
// campaign.
func (c *Campaign) Check() error {
	for i, e := range c.Entries {
		if e == nil {
			return fmt.Errorf("dataset: entry %d is nil", i)
		}
		if !e.InitMCS.Valid() {
			return fmt.Errorf("dataset: entry %d has invalid MCS %d", i, e.InitMCS)
		}
		if e.Label < ActBA || e.Label > ActNA {
			return fmt.Errorf("dataset: entry %d has invalid label %d", i, e.Label)
		}
		if e.Features[5] < 0 || e.Features[5] > 1 {
			return fmt.Errorf("dataset: entry %d has CDR %v outside [0,1]", i, e.Features[5])
		}
		if e.Impairment < Displacement || e.Impairment > NoImpairment {
			return fmt.Errorf("dataset: entry %d has invalid impairment %d", i, e.Impairment)
		}
	}
	for i, s := range c.Sites {
		if s.Impairment < Displacement || s.Impairment > NoImpairment {
			return fmt.Errorf("dataset: site %d has invalid impairment %d", i, s.Impairment)
		}
	}
	return nil
}
