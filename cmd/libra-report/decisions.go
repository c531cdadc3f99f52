package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/libra-wlan/libra/internal/obs/decisionlog"
	"github.com/libra-wlan/libra/internal/obs/drift"
)

// summarizeDecisions validates an LDL1 audit log and prints its stream
// summary: record counts, the canonical digest, and per-stage latency
// percentiles. With a reference profile it additionally replays the log
// through the windowed drift monitor; driftOut then receives the
// replay-deterministic report (canonical digest plus window table, never
// wall-clock latencies) that CI compares byte-for-byte across worker
// counts.
func summarizeDecisions(w io.Writer, path, profilePath string, window int, driftOut string) error {
	if driftOut != "" && profilePath == "" {
		return fmt.Errorf("-drift-out needs -profile")
	}
	data, err := decisionlog.ReadFile(path)
	if err != nil {
		return err
	}
	var decisions, truths uint64
	for i := range data.Records {
		switch data.Records[i].Kind {
		case decisionlog.KindDecision:
			decisions++
		case decisionlog.KindTruth:
			truths++
		}
	}
	digest := decisionlog.CanonicalDigest(data.Records, data.NFeat)
	fmt.Fprintf(w, "audit log %s: %d records (%d decisions, %d truths), %d features, %d producer drops\n",
		path, len(data.Records), decisions, truths, data.NFeat, data.Drops)
	fmt.Fprintf(w, "canonical digest: %s\n", hex.EncodeToString(digest[:]))
	printStageLatencies(w, data.Records)

	if profilePath == "" {
		return nil
	}
	prof, err := drift.LoadFile(profilePath, data.NFeat)
	if err != nil {
		return fmt.Errorf("loading %s: %w", profilePath, err)
	}
	rep, err := drift.Analyze(data.Records, drift.Config{Profile: prof, WindowRecords: window})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndrift replay vs profile %q (window %d): %d windows, %d tripped\n",
		prof.Name, window, len(rep.Windows), rep.Trips)
	fmt.Fprintf(w, "%-6s %-8s %-10s %-14s %-8s %-8s %-8s %-8s %-8s %s\n",
		"window", "records", "psi_max", "feature", "ks_max", "act_tv", "unk_act", "joined", "acc", "tripped")
	for i := range rep.Windows {
		ws := &rep.Windows[i]
		fmt.Fprintf(w, "%-6d %-8d %-10.4f %-14s %-8.4f %-8.4f %-8d %-8d %-8.4f %v\n",
			ws.Index, ws.Records, ws.PSIMax, ws.PSIFeature, ws.KSMax, ws.ActionTV,
			ws.UnknownActions, ws.Joined, ws.Accuracy(), ws.Tripped)
	}
	if driftOut == "" {
		return nil
	}
	if err := os.WriteFile(driftOut, driftReportBytes(data, digest, rep, window), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "drift report written to %s\n", driftOut)
	return nil
}

// driftReportBytes renders the drift replay as deterministic text: every
// field is a function of the canonical record set and the profile, so two
// logs holding the same sampled decisions serialize identically whatever
// worker, shard, or drain interleaving produced them. Floats print via
// strconv's shortest round-trip form; wall-clock latencies never appear.
func driftReportBytes(data *decisionlog.LogData, digest [32]byte, rep *drift.Report, window int) []byte {
	var b strings.Builder
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(&b, "ldl1-drift-report v1\n")
	fmt.Fprintf(&b, "nfeat %d\n", data.NFeat)
	fmt.Fprintf(&b, "canonical_digest %s\n", hex.EncodeToString(digest[:]))
	fmt.Fprintf(&b, "decisions %d\ntruths %d\nwindow %d\ntrips %d\n", rep.Decisions, rep.Truths, window, rep.Trips)
	for i := range rep.Windows {
		w := &rep.Windows[i]
		fmt.Fprintf(&b, "window %d records %d psi_max %s psi_feature %s ks_max %s action_tv %s joined %d correct %d tripped %v psi",
			w.Index, w.Records, g(w.PSIMax), w.PSIFeature, g(w.KSMax), g(w.ActionTV), w.Joined, w.Correct, w.Tripped)
		for _, p := range w.PSIPerFeature {
			fmt.Fprintf(&b, " %s", g(p))
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// printStageLatencies renders per-stage latency percentiles over the log's
// decision records. These columns are wall-clock measurements — the one part
// of the stream that is not replay-deterministic — so they go to stdout only
// and never into -drift-out.
func printStageLatencies(w io.Writer, recs []decisionlog.Record) {
	stages := []struct {
		name string
		get  func(*decisionlog.Record) uint32
	}{
		{"admission", func(r *decisionlog.Record) uint32 { return r.LatAdmissionNs }},
		{"queue", func(r *decisionlog.Record) uint32 { return r.LatQueueNs }},
		{"coalesce", func(r *decisionlog.Record) uint32 { return r.LatCoalesceNs }},
		{"predict", func(r *decisionlog.Record) uint32 { return r.LatPredictNs }},
		{"encode", func(r *decisionlog.Record) uint32 { return r.LatEncodeNs }},
	}
	vals := make([]uint32, 0, len(recs))
	for _, st := range stages {
		vals = vals[:0]
		for i := range recs {
			if recs[i].Kind == decisionlog.KindDecision {
				vals = append(vals, st.get(&recs[i]))
			}
		}
		if len(vals) == 0 {
			continue
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		pct := func(p float64) float64 {
			return float64(vals[int(p*float64(len(vals)-1))]) / 1e6
		}
		fmt.Fprintf(w, "stage %-10s p50 %8.3f ms  p90 %8.3f ms  p99 %8.3f ms\n",
			st.name, pct(0.50), pct(0.90), pct(0.99))
	}
}
