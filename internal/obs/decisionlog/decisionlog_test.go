package decisionlog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/libra-wlan/libra/internal/testutil"
)

// mkRecord builds a deterministic record keyed by reqID.
func mkRecord(reqID uint64) Record {
	r := Record{
		Kind:         KindDecision,
		Action:       uint8(reqID % 5),
		Shard:        uint16(reqID % 3),
		ModelID:      uint32(1 + reqID%2),
		ReqID:        reqID,
		LinkID:       reqID * 31,
		LatQueueNs:   uint32(100 * reqID),
		LatPredictNs: uint32(50 * reqID),
	}
	for i := 0; i < 7; i++ {
		r.Feat[i] = float32(reqID)*0.5 + float32(i)
	}
	return r
}

func TestRecordRoundTrip(t *testing.T) {
	const nfeat = 7
	in := mkRecord(42)
	buf := make([]byte, RecordBytes(nfeat))
	in.encodeInto(buf, nfeat)
	var out Record
	if err := out.decodeFrom(buf, nfeat); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if err := out.decodeFrom(buf[:RecordBytes(nfeat)-1], nfeat); err == nil {
		t.Fatal("decode of truncated record succeeded")
	}
}

// TestLogRoundTrip drives a Log with concurrent producers across several
// rings and validates the re-read image: record count, drop count, and
// per-record contents.
func TestLogRoundTrip(t *testing.T) {
	const (
		nfeat = 7
		total = 5000
		procs = 4
	)
	var buf bytes.Buffer
	l, err := New(&buf, Config{NFeat: nfeat, Rings: 3, RingRecords: 1 << 14, ChunkRecords: 256})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for id := p; id < total; id += procs {
				rec := mkRecord(uint64(id))
				if !l.Publish(int(rec.Shard), &rec) {
					t.Errorf("publish %d dropped despite oversized ring", id)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NFeat != nfeat || got.Drops != 0 || len(got.Records) != total {
		t.Fatalf("got nfeat=%d drops=%d records=%d, want %d/0/%d",
			got.NFeat, got.Drops, len(got.Records), nfeat, total)
	}
	SortCanonical(got.Records)
	for i, r := range got.Records {
		if want := mkRecord(uint64(i)); r != want {
			t.Fatalf("record %d mismatch:\n got=%+v\nwant=%+v", i, r, want)
		}
	}
}

// TestLDLGoldenBytes pins the LDL1 container byte for byte: one producer on
// one ring publishes mkRecord(0..n-1), so the chunk boundaries (every 16
// records) and the drain order are fixed. The bytes counter covers the whole
// image, header included.
func TestLDLGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		n    int
		size int
		sha  string
	}{
		{0, 56, "c4ac0f2042028df47efa761f941675d34c6a98cf0d638b678802d31bac5cced2"},
		{100, 7564, "9d1ee2042c4b71ae1936270eae4dd72ba9c4007efcbfe4352bba6df603e583dc"},
		{5000, 373828, "d6223fed482e74a6650ae85a0cb8e85957dcb6d27e17c331958e73efe0d1453a"},
	} {
		before := obsAuditBytes.Value()
		var buf bytes.Buffer
		l, err := New(&buf, Config{NFeat: 7, ChunkRecords: 16, RingRecords: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < tc.n; id++ {
			rec := mkRecord(uint64(id))
			l.Publish(0, &rec)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if buf.Len() != tc.size || hex.EncodeToString(sum[:]) != tc.sha {
			t.Errorf("n=%d: %d bytes, sha256 %x; want %d bytes, %s", tc.n, buf.Len(), sum, tc.size, tc.sha)
		}
		if got := obsAuditBytes.Value() - before; got != uint64(buf.Len()) {
			t.Errorf("n=%d: bytes counter moved %d, want %d", tc.n, got, buf.Len())
		}
	}
}

// TestCanonicalDigestWorkerInvariant publishes the same sampled record set
// under different producer counts, ring counts, and interleavings and
// requires identical canonical digests — the property CI's drift-smoke cmp
// rests on.
func TestCanonicalDigestWorkerInvariant(t *testing.T) {
	const nfeat = 7
	run := func(procs, rings int, seed int64) [32]byte {
		var buf bytes.Buffer
		l, err := New(&buf, Config{NFeat: nfeat, Rings: rings, RingRecords: 1 << 13, ChunkRecords: 128, Sample: 4})
		if err != nil {
			t.Fatal(err)
		}
		ids := rand.New(rand.NewSource(seed)).Perm(4000)
		var wg sync.WaitGroup
		per := (len(ids) + procs - 1) / procs
		for p := 0; p < procs; p++ {
			lo, hi := p*per, min((p+1)*per, len(ids))
			wg.Add(1)
			go func(part []int) {
				defer wg.Done()
				for _, id := range part {
					rec := mkRecord(uint64(id))
					if !l.Sampled(rec.ReqID, rec.LinkID) {
						continue
					}
					l.Publish(int(rec.Shard), &rec)
				}
			}(ids[lo:hi])
		}
		wg.Wait()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := Read(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) == 0 || len(got.Records) == 4000 {
			t.Fatalf("sampling produced %d of 4000 records", len(got.Records))
		}
		return CanonicalDigest(got.Records, nfeat)
	}
	base := run(1, 1, 1)
	for _, c := range []struct {
		procs, rings int
		seed         int64
	}{{4, 1, 2}, {8, 3, 3}, {2, 2, 4}} {
		if got := run(c.procs, c.rings, c.seed); got != base {
			t.Errorf("digest diverged at procs=%d rings=%d: %x vs %x", c.procs, c.rings, got, base)
		}
	}
}

// TestSampledDeterministic pins the sampling predicate: identity-keyed,
// independent of call order, and roughly 1/N dense.
func TestSampledDeterministic(t *testing.T) {
	if !Sampled(0, 1, 2) || !Sampled(1, 1, 2) {
		t.Fatal("n<=1 must sample everything")
	}
	hits := 0
	for id := uint64(0); id < 8000; id++ {
		a := Sampled(8, id, id*31)
		b := Sampled(8, id, id*31)
		if a != b {
			t.Fatalf("Sampled unstable for id %d", id)
		}
		if a {
			hits++
		}
	}
	if hits < 700 || hits > 1300 {
		t.Fatalf("1/8 sampling hit %d of 8000", hits)
	}
}

func TestRingDropsWhenFull(t *testing.T) {
	r := NewRing(8, 7)
	rec := mkRecord(1)
	for i := 0; i < 8; i++ {
		if !r.Publish(&rec) {
			t.Fatalf("publish %d dropped below capacity", i)
		}
	}
	if r.Publish(&rec) {
		t.Fatal("publish into a full ring succeeded")
	}
	if r.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", r.Drops())
	}
	n := r.drain(func([]byte) {})
	if n != 8 {
		t.Fatalf("drained %d, want 8", n)
	}
	if !r.Publish(&rec) {
		t.Fatal("publish after drain dropped")
	}
}

// TestReadFailClosed corrupts a valid log in several ways; every mutation
// must yield ErrCorrupt, never partial data.
func TestReadFailClosed(t *testing.T) {
	var buf bytes.Buffer
	l, err := New(&buf, Config{NFeat: 7, ChunkRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 100; id++ {
		rec := mkRecord(uint64(id))
		l.Publish(0, &rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Read(good); err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = f(b)
		if _, err := Read(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	mutate("flipped payload byte", func(b []byte) []byte { b[ldlHeadBytes+12+5] ^= 0x40; return b })
	mutate("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("bad version", func(b []byte) []byte { b[4] = 9; return b })
	mutate("truncated tail", func(b []byte) []byte { return b[:len(b)-40] })
	mutate("truncated to header", func(b []byte) []byte { return b[:ldlHeadBytes] })
	mutate("bad trailer magic", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	mutate("footer record count", func(b []byte) []byte {
		ftrOff := len(b) - 16 - (24 + 7*32) // 16-byte trailer; 100 recs / 16 per chunk = 7 chunks
		b[ftrOff+4]++
		return b
	})
}

// FuzzReadLDL requires the reader to fail closed on any input: no crash, and
// every error wraps ErrCorrupt. The seeds under testdata/fuzz/FuzzReadLDL
// are one-producer logs (NFeat 7, ChunkRecords 2) of mkRecord(0..n-1) at
// n = 0 and 3, and the n = 0 log with its footer offset set to 2^64-1, whose
// offset+4 wraps.
func FuzzReadLDL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := Read(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error does not wrap ErrCorrupt: %v", err)
		}
	})
}

// TestPublishNoalloc is the runtime mirror of the static //lint:noalloc
// contract on the audit emit path: Sampled, Ring.Publish, and Log.Publish
// must not allocate once the log is warm.
func TestPublishNoalloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rec := mkRecord(7)

	if n := testing.AllocsPerRun(200, func() {
		if !Sampled(64, rec.ReqID, rec.LinkID) {
			_ = rec
		}
	}); n != 0 {
		t.Errorf("Sampled allocates %v per run", n)
	}

	ring := NewRing(1<<12, 7)
	if n := testing.AllocsPerRun(200, func() { ring.Publish(&rec) }); n != 0 {
		t.Errorf("Ring.Publish allocates %v per run", n)
	}

	var buf bytes.Buffer
	l, err := New(&buf, Config{NFeat: 7, RingRecords: 1 << 14, ChunkRecords: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := testing.AllocsPerRun(200, func() { l.Publish(0, &rec) }); n != 0 {
		t.Errorf("Log.Publish allocates %v per run", n)
	}
}
