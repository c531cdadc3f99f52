package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// ldsTestCampaign generates a small fixed-seed campaign once per test run.
func ldsTestCampaign(t *testing.T) *Campaign {
	t.Helper()
	return GenerateTestWorkers(43, 1)
}

// TestLDSRoundTrip pins the container contract: write → read → write must
// reproduce the campaign exactly (entries, sites, name) and the second write
// must be byte-identical to the first.
func TestLDSRoundTrip(t *testing.T) {
	c := ldsTestCampaign(t)
	var first bytes.Buffer
	if err := c.WriteLDS(&first, 64); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLDS(first.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != c.Name {
		t.Fatalf("name %q, want %q", got.Name, c.Name)
	}
	if !reflect.DeepEqual(got.Sites, c.Sites) {
		t.Fatal("sites did not round-trip")
	}
	if len(got.Entries) != len(c.Entries) {
		t.Fatalf("%d entries, want %d", len(got.Entries), len(c.Entries))
	}
	for i := range c.Entries {
		if *got.Entries[i] != *c.Entries[i] {
			t.Fatalf("entry %d did not round-trip:\n got %+v\nwant %+v", i, *got.Entries[i], *c.Entries[i])
		}
	}
	if got.Digest() != c.Digest() {
		t.Fatal("digest changed across the round trip")
	}
	var second bytes.Buffer
	if err := got.WriteLDS(&second, 64); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("write → read → write is not byte-identical")
	}
}

// TestLDSGoldenBytes pins the container byte for byte: the test campaign at
// two chunk sizes, the main campaign (chunkRows 0 is what libra-dataset
// -which test|main -o writes) and the empty campaign. The bytes counter's
// help text excludes the 24-byte header, so its delta is the image minus
// that header.
func TestLDSGoldenBytes(t *testing.T) {
	c := ldsTestCampaign(t)
	empty := &Campaign{Dataset: Dataset{Name: "empty"}}
	for _, tc := range []struct {
		c         *Campaign
		chunkRows int
		size      int
		sha       string
	}{
		{c, 64, 119805, "29e134afc021fe9a8a2cb3046984060770751aa782df5871d9039ed40c17c9ac"},
		{c, 0, 119469, "0fe92f2c96abf92d4d0d8d02bb6ae7b281b42abc12599b5ce5be7587ab0b4a9d"},
		{GenerateMainWorkers(42, 0), 0, 348515, "2763348423d129d3948d82354badf254ffa8237e4c20aad7ad0a3f84a2906d35"},
		{empty, 0, 129, "ed10174019e323a10771f1f7b2a692915bc4c38f1a2c5e4bb31839f3c5ca3063"},
	} {
		before := obsLDSBytes.Value()
		var buf bytes.Buffer
		if err := tc.c.WriteLDS(&buf, tc.chunkRows); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if buf.Len() != tc.size || hex.EncodeToString(sum[:]) != tc.sha {
			t.Errorf("%s at chunkRows %d: %d bytes, sha256 %x; want %d bytes, %s",
				tc.c.Name, tc.chunkRows, buf.Len(), sum, tc.size, tc.sha)
		}
		if got, want := obsLDSBytes.Value()-before, uint64(buf.Len()-24); got != want {
			t.Errorf("%s at chunkRows %d: bytes counter moved %d, want %d", tc.c.Name, tc.chunkRows, got, want)
		}
	}
}

// TestLDSOpenFile exercises the file path.
func TestLDSOpenFile(t *testing.T) {
	c := ldsTestCampaign(t)
	path := filepath.Join(t.TempDir(), "campaign.lds")
	var buf bytes.Buffer
	if err := c.WriteLDS(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := writeTestFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := OpenLDS(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != c.Digest() {
		t.Fatal("digest mismatch through file path")
	}
}

// TestLDSRejectsTruncation cuts the image at several points — inside the
// header, inside a chunk payload, inside the footer, inside the trailer —
// and requires a corruption error for each.
func TestLDSRejectsTruncation(t *testing.T) {
	c := ldsTestCampaign(t)
	var buf bytes.Buffer
	if err := c.WriteLDS(&buf, 64); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	cuts := []int{3, 12, 40, len(img) / 2, len(img) - 40, len(img) - 9, len(img) - 1}
	for _, cut := range cuts {
		if cut <= 0 || cut >= len(img) {
			continue
		}
		if _, err := ReadLDS(img[:cut]); !errors.Is(err, ErrLDSCorrupt) {
			t.Fatalf("truncation at %d of %d: got %v, want ErrLDSCorrupt", cut, len(img), err)
		}
	}
}

// TestLDSRejectsCorruption flips a byte inside a chunk payload and inside the
// footer digest region; both must fail closed with ErrLDSCorrupt.
func TestLDSRejectsCorruption(t *testing.T) {
	c := ldsTestCampaign(t)
	var buf bytes.Buffer
	if err := c.WriteLDS(&buf, 64); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	// A float byte deep inside the first chunk payload: the per-chunk
	// SHA-256 must catch it.
	payload := make([]byte, len(img))
	copy(payload, img)
	payload[24+16+200] ^= 0x40
	if _, err := ReadLDS(payload); !errors.Is(err, ErrLDSCorrupt) {
		t.Fatalf("payload corruption: got %v, want ErrLDSCorrupt", err)
	}

	// A byte of the stored chunk digest in the footer: the recomputed sum
	// cannot match.
	footer := make([]byte, len(img))
	copy(footer, img)
	footer[len(footer)-60] ^= 0x01
	if _, err := ReadLDS(footer); !errors.Is(err, ErrLDSCorrupt) {
		t.Fatalf("footer corruption: got %v, want ErrLDSCorrupt", err)
	}

	// The trailer magic itself.
	trail := make([]byte, len(img))
	copy(trail, img)
	trail[len(trail)-1] = 'X'
	if _, err := ReadLDS(trail); !errors.Is(err, ErrLDSCorrupt) {
		t.Fatalf("trailer corruption: got %v, want ErrLDSCorrupt", err)
	}

	// A version this reader does not know.
	v2 := append([]byte(nil), img...)
	v2[4] = 2
	if _, err := ReadLDS(v2); !errors.Is(err, ErrLDSCorrupt) {
		t.Fatalf("version 2: got %v, want ErrLDSCorrupt", err)
	}

	// Consistent sums and digest around content Campaign.Check refuses: an
	// entry's label, an entry's NaN CDR, then a site's impairment.
	badLabel := &Campaign{Dataset: Dataset{Name: "bad-label", Entries: []*Entry{{Env: "lab", InitMCS: 3, Label: 7}}}}
	nanCDR := &Campaign{Dataset: Dataset{Name: "cdr-nan", Entries: []*Entry{{Env: "lab", InitMCS: 3}}}}
	nanCDR.Entries[0].Features[5] = math.NaN()
	badSite := &Campaign{Dataset: Dataset{Name: "bad-site"}, Sites: []Site{{Env: "lab", Impairment: 9}}}
	for _, bad := range []*Campaign{badLabel, nanCDR, badSite} {
		var b bytes.Buffer
		if err := bad.WriteLDS(&b, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadLDS(b.Bytes()); !errors.Is(err, ErrLDSCorrupt) {
			t.Fatalf("%s: got %v, want ErrLDSCorrupt", bad.Name, err)
		}
	}
}

// TestLDSWritesEditedCampaign edits a generated campaign in place, once by
// changing one entry's feature and once by swapping two entries, and
// requires the container to carry the edit: it must load back to a campaign
// equal to the edited one.
func TestLDSWritesEditedCampaign(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(c *Campaign)
	}{
		{"feature", func(c *Campaign) { c.Entries[5].Features[0] += 0.5 }},
		{"swap", func(c *Campaign) { c.Entries[3], c.Entries[200] = c.Entries[200], c.Entries[3] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := ldsTestCampaign(t)
			tc.edit(c)
			var buf bytes.Buffer
			if err := c.WriteLDS(&buf, 0); err != nil {
				t.Fatal(err)
			}
			got, err := ReadLDS(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			equalCampaigns(t, c, got)
		})
	}
}

// TestReadLDSValidatesEntries writes a campaign whose one entry carries an
// out-of-range MCS or label (WriteLDS does not check) and requires ReadLDS
// to refuse it with ErrLDSCorrupt.
func TestReadLDSValidatesEntries(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    Entry
	}{
		{"MCS 42", Entry{Env: "lab", InitMCS: 42, Label: ActRA}},
		{"label 9", Entry{Env: "lab", InitMCS: 3, Label: 9}},
	} {
		c := &Campaign{Dataset: Dataset{Name: "x", Entries: []*Entry{&tc.e}}}
		var buf bytes.Buffer
		if err := c.WriteLDS(&buf, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadLDS(buf.Bytes()); !errors.Is(err, ErrLDSCorrupt) {
			t.Errorf("%s: ReadLDS = %v, want ErrLDSCorrupt", tc.name, err)
		}
	}
}

// hugeChunkCountImage is a header claiming 0xFFFFFFFF chunks followed by 64
// zero bytes: 88 bytes that once made the reader allocate for every claimed
// chunk and kill the process.
func hugeChunkCountImage() []byte {
	img := []byte("LDS1")
	for _, v := range []uint32{1, 4096, 0xFFFFFFFF} {
		img = binary.LittleEndian.AppendUint32(img, v)
	}
	img = binary.LittleEndian.AppendUint64(img, 0)
	return append(img, make([]byte, 64)...)
}

// TestLDSRejectsHugeChunkCount feeds the reader chunk counts no file could
// hold: the 88-byte image, and a valid empty campaign whose header count is
// raised to 0xFFFFFFFF. Both must fail closed without sizing anything by
// the claimed count.
func TestLDSRejectsHugeChunkCount(t *testing.T) {
	img := hugeChunkCountImage()
	if len(img) != 88 {
		t.Fatalf("image is %d bytes, want 88", len(img))
	}
	if _, err := ReadLDS(img); !errors.Is(err, ErrLDSCorrupt) {
		t.Fatalf("88-byte image: got %v, want ErrLDSCorrupt", err)
	}
	var buf bytes.Buffer
	if err := (&Campaign{Dataset: Dataset{Name: "empty"}}).WriteLDS(&buf, 0); err != nil {
		t.Fatal(err)
	}
	empty := buf.Bytes()
	binary.LittleEndian.PutUint32(empty[12:], 0xFFFFFFFF)
	if _, err := ReadLDS(empty); !errors.Is(err, ErrLDSCorrupt) {
		t.Fatalf("empty campaign claiming 2^32-1 chunks: got %v, want ErrLDSCorrupt", err)
	}
}

// FuzzReadLDS requires the reader to fail closed on any input: no crash, and
// every error wraps ErrLDSCorrupt. A campaign that loads must write and load
// back to the same digest. The seeds under testdata/fuzz/FuzzReadLDS are a
// 3-row campaign (the first three entries and sites of
// GenerateTestWorkers(43, 1)) written in 1-row chunks, that campaign with
// its footer offset set to 2^64-1, whose offset+4 wraps, that campaign with
// entry 1's CDR set to NaN before writing (cdr-nan, refused by Check), and
// the 88-byte image of TestLDSRejectsHugeChunkCount.
func FuzzReadLDS(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadLDS(data)
		if err != nil {
			if !errors.Is(err, ErrLDSCorrupt) {
				t.Fatalf("error does not wrap ErrLDSCorrupt: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := c.WriteLDS(&buf, 0); err != nil {
			t.Fatal(err)
		}
		again, err := ReadLDS(buf.Bytes())
		if err != nil || again.Digest() != c.Digest() {
			t.Fatalf("re-encoded campaign does not load back: %v", err)
		}
	})
}

// byteCounter counts the bytes written to it.
type byteCounter int

func (n *byteCounter) Write(p []byte) (int, error) {
	*n += byteCounter(len(p))
	return len(p), nil
}

// TestLDSDictionaryCapacity fills the Env/Building dictionary to the 65,536
// names its u16 codes address: that campaign round-trips, and one more name
// is refused, naming the count, before WriteLDS writes a byte.
func TestLDSDictionaryCapacity(t *testing.T) {
	slab := make([]Entry, ldsMaxNames/2+1)
	for i := range slab {
		slab[i] = Entry{Env: fmt.Sprintf("env%d", i), Building: fmt.Sprintf("bld%d", i), InitMCS: 3, Label: ActRA}
	}
	slab[len(slab)-1].Building = "bld0" // the one name past capacity is its Env
	c := &Campaign{
		Dataset: Dataset{Name: "names", Entries: make([]*Entry, len(slab)-1)},
		Sites:   []Site{{Env: "env0"}},
	}
	for i := range c.Entries {
		c.Entries[i] = &slab[i]
	}
	var buf bytes.Buffer
	if err := c.WriteLDS(&buf, 0); err != nil {
		t.Fatalf("%d names: %v", ldsMaxNames, err)
	}
	got, err := ReadLDS(buf.Bytes())
	if err != nil {
		t.Fatalf("%d names: %v", ldsMaxNames, err)
	}
	equalCampaigns(t, c, got)

	c.Entries = append(c.Entries, &slab[len(slab)-1])
	var n byteCounter
	err = c.WriteLDS(&n, 0)
	if err == nil || !strings.Contains(err.Error(), "65537") {
		t.Fatalf("65537 names: WriteLDS = %v, want an error naming the count", err)
	}
	if n != 0 {
		t.Fatalf("65537 names: WriteLDS wrote %d bytes before refusing", n)
	}
}

// TestLDSEmptyCampaign round-trips a campaign with no entries.
func TestLDSEmptyCampaign(t *testing.T) {
	c := &Campaign{Dataset: Dataset{Name: "empty"}}
	var buf bytes.Buffer
	if err := c.WriteLDS(&buf, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLDS(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "empty" || len(got.Entries) != 0 {
		t.Fatalf("got %q with %d entries", got.Name, len(got.Entries))
	}
}

// writeTestFile writes bytes to path (0644).
func writeTestFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
