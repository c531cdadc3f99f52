package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/libra-wlan/libra/internal/framing"
	"github.com/libra-wlan/libra/internal/phy"
)

// libra-ds v1 is the streaming binary campaign container: a fixed header,
// a sequence of fixed-width column chunks, and a footer carrying the string
// dictionary, the site registry, a SHA-256 per chunk payload, and the
// campaign content digest. All integers are little-endian.
//
//	header:
//	  "LDS1" | u32 version=1 | u32 chunkRows | u32 chunkCount | u64 rowCount
//	chunk frame (chunkCount times):
//	  "CHNK" | u32 rows | u64 payloadLen | payload
//	  payload: the columns of the chunk's row range, column-major, in
//	  canonical order — Env u16, Bld u16, Imp u8, Label u8, Pos i32,
//	  InitMCS u8, Feat[0..NumFeatures) f64, InitSNR f64, NewSNRInit f64,
//	  NewSNRBest f64, InitTh f64, ThRA f64, ThBA f64,
//	  InitBeamTh[0..NumMCS) f64, BestBeamTh[0..NumMCS) f64.
//	  Floats are IEEE-754 bit patterns: the round trip is exact.
//	footer:
//	  "LDSF" | u32 nameLen | name
//	  u32 dictLen | dictLen x (u32 len | bytes)
//	  u32 siteCount | siteCount x (u32 envLen | env | u8 impairment | i32 posID)
//	  chunkCount x 32-byte SHA-256 (of each chunk payload)
//	  u32 digestLen | campaign content digest (Campaign.Digest(), hex)
//	trailer:
//	  u64 footerOffset | "LDS1FTR\0"
//
// internal/framing writes and checks the frames, the chunk sums and the
// trailer; this file owns the header, payload and footer fields. The bytes
// depend only on the campaign content and chunkRows.

// ldsVersion is the container schema version.
const ldsVersion = 1

// DefaultChunkRows is the chunk granularity WriteLDS uses when the caller
// passes chunkRows <= 0: large enough to amortize framing and hashing, small
// enough that a streaming reader verifies in bounded memory.
const DefaultChunkRows = 4096

// ErrLDSCorrupt reports a structurally damaged or digest-mismatched
// libra-ds file. Every reader failure wraps it, so callers can distinguish
// corruption from I/O errors with errors.Is.
var ErrLDSCorrupt = errors.New("dataset: corrupt libra-ds file")

// ldsFormat frames libra-ds: a 24-byte header and u64 payload lengths.
var ldsFormat = framing.Format{Magic: [4]byte{'L', 'D', 'S', '1'}, HeaderLen: 24, LenBytes: 8, Err: ErrLDSCorrupt}

// ldsMaxString bounds every footer string but the digest.
const ldsMaxString = 1 << 20

// ldsMaxNames is the dictionary's capacity: Env and Building are stored as
// u16 codes.
const ldsMaxNames = 1 << 16

// ldsRowBytes is the fixed per-row payload width: the dictionary indices and
// enums plus every float column.
const ldsRowBytes = 2 + 2 + 1 + 1 + 4 + 1 + 8*(NumFeatures+6+2*phy.NumMCS)

// ldsFloatCols are the float columns of a chunk payload in canonical order,
// each as the address of its field in an entry.
var ldsFloatCols = func() []func(*Entry) *float64 {
	var cols []func(*Entry) *float64
	for f := 0; f < NumFeatures; f++ {
		cols = append(cols, func(e *Entry) *float64 { return &e.Features[f] })
	}
	cols = append(cols,
		func(e *Entry) *float64 { return &e.InitSNRdB },
		func(e *Entry) *float64 { return &e.NewSNRInitPair },
		func(e *Entry) *float64 { return &e.NewSNRBestPair },
		func(e *Entry) *float64 { return &e.InitThBps },
		func(e *Entry) *float64 { return &e.ThRABps },
		func(e *Entry) *float64 { return &e.ThBABps },
	)
	for m := 0; m < phy.NumMCS; m++ {
		cols = append(cols, func(e *Entry) *float64 { return &e.InitBeamTh[m] })
	}
	for m := 0; m < phy.NumMCS; m++ {
		cols = append(cols, func(e *Entry) *float64 { return &e.BestBeamTh[m] })
	}
	return cols
}()

// encodeChunk appends the columns of rows to buf in canonical order, Env and
// Building as their codes in the dictionary.
func encodeChunk(buf []byte, rows []*Entry, code map[string]uint16) []byte {
	for _, e := range rows {
		buf = binary.LittleEndian.AppendUint16(buf, code[e.Env])
	}
	for _, e := range rows {
		buf = binary.LittleEndian.AppendUint16(buf, code[e.Building])
	}
	for _, e := range rows {
		buf = append(buf, uint8(e.Impairment))
	}
	for _, e := range rows {
		buf = append(buf, uint8(e.Label))
	}
	for _, e := range rows {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(e.PosID)))
	}
	for _, e := range rows {
		buf = append(buf, uint8(e.InitMCS))
	}
	for _, col := range ldsFloatCols {
		for _, e := range rows {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(*col(e)))
		}
	}
	return buf
}

// appendLDSString appends a u32-length-prefixed string.
func appendLDSString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// WriteLDS streams the campaign in libra-ds v1 format, one chunk of
// chunkRows rows at a time; chunkRows <= 0 selects DefaultChunkRows. The
// bytes depend only on the campaign content and chunkRows. A campaign with
// more distinct Env and Building names than the dictionary's u16 codes
// can address is refused before any byte is written.
func (c *Campaign) WriteLDS(w io.Writer, chunkRows int) error {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	// The dictionary holds every Env and Building name in first-use order.
	var names []string
	code := map[string]uint16{}
	for _, e := range c.Entries {
		for _, name := range [2]string{e.Env, e.Building} {
			if _, ok := code[name]; !ok {
				code[name] = uint16(len(names)) // wraps only past ldsMaxNames, refused below
				names = append(names, name)
			}
		}
	}
	if len(names) > ldsMaxNames {
		return fmt.Errorf("dataset: campaign has %d distinct Env and Building names, libra-ds holds at most %d", len(names), ldsMaxNames)
	}
	n := len(c.Entries)
	var hdr []byte
	hdr = binary.LittleEndian.AppendUint32(hdr, ldsVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(chunkRows))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32((n+chunkRows-1)/chunkRows))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(n))
	fw, err := ldsFormat.NewWriter(w, hdr)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	buf := make([]byte, 0, min(n, chunkRows)*ldsRowBytes)
	for lo := 0; lo < n; lo += chunkRows {
		hi := min(lo+chunkRows, n)
		buf = encodeChunk(buf[:0], c.Entries[lo:hi], code)
		m, err := fw.Chunk(uint32(hi-lo), buf)
		if err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
		obsLDSChunks.Inc()
		obsLDSBytes.Add(uint64(m))
	}

	pre := appendLDSString(nil, c.Name)
	pre = binary.LittleEndian.AppendUint32(pre, uint32(len(names)))
	for _, name := range names {
		pre = appendLDSString(pre, name)
	}
	pre = binary.LittleEndian.AppendUint32(pre, uint32(len(c.Sites)))
	for _, s := range c.Sites {
		pre = appendLDSString(pre, s.Env)
		pre = append(pre, uint8(s.Impairment))
		pre = binary.LittleEndian.AppendUint32(pre, uint32(int32(s.PosID)))
	}
	m, err := fw.Finish(pre, appendLDSString(nil, c.Digest()))
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	obsLDSBytes.Add(uint64(m))
	return nil
}

// decodeChunk fills rows from one verified chunk payload, refusing a
// dictionary code outside names.
func decodeChunk(rows []Entry, payload []byte, names []string) error {
	off := 0
	for _, field := range [2]func(*Entry) *string{
		func(e *Entry) *string { return &e.Env },
		func(e *Entry) *string { return &e.Building },
	} {
		for i := range rows {
			code := binary.LittleEndian.Uint16(payload[off:])
			off += 2
			if int(code) >= len(names) {
				return ldsFormat.Corrupt("dictionary index %d out of range (%d names)", code, len(names))
			}
			*field(&rows[i]) = names[code]
		}
	}
	for i := range rows {
		rows[i].Impairment = Impairment(payload[off])
		off++
	}
	for i := range rows {
		rows[i].Label = Action(payload[off])
		off++
	}
	for i := range rows {
		rows[i].PosID = int(int32(binary.LittleEndian.Uint32(payload[off:])))
		off += 4
	}
	for i := range rows {
		rows[i].InitMCS = phy.MCS(payload[off])
		off++
	}
	for _, col := range ldsFloatCols {
		for i := range rows {
			*col(&rows[i]) = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
	}
	return nil
}

// ReadLDS decodes a complete libra-ds v1 image (as produced by WriteLDS)
// into a campaign, verifying the framing, every per-chunk SHA-256, the row
// and chunk counts, the dictionary codes, the campaign content digest and
// Campaign.Check. Every error wraps ErrLDSCorrupt. The returned campaign
// owns its memory: data may be reused afterwards.
func ReadLDS(data []byte) (*Campaign, error) {
	img, err := ldsFormat.Read(data)
	if err != nil {
		return nil, err
	}
	h := img.Header
	if v := h.U32(); v != ldsVersion {
		return nil, ldsFormat.Corrupt("unsupported libra-ds version %d (want %d)", v, ldsVersion)
	}
	h.U32() // chunkRows: informational
	if chunkCount := h.U32(); int64(chunkCount) != int64(len(img.Chunks)) {
		return nil, ldsFormat.Corrupt("header says %d chunks, file holds %d", chunkCount, len(img.Chunks))
	}
	rowCount := h.U64()
	total := uint64(0)
	for i, ch := range img.Chunks {
		if want := uint64(ch.Count) * ldsRowBytes; uint64(len(ch.Payload)) != want {
			return nil, ldsFormat.Corrupt("chunk %d: payload %d bytes for %d rows (want %d)", i, len(ch.Payload), ch.Count, want)
		}
		total += uint64(ch.Count)
	}
	if total != rowCount {
		return nil, ldsFormat.Corrupt("chunks carry %d rows, header says %d", total, rowCount)
	}

	// Each name takes at least its 4-byte length, each site 4+1+4 bytes.
	f := img.Footer
	name := f.Str(ldsMaxString)
	names := make([]string, f.Count(4))
	for i := range names {
		names[i] = f.Str(ldsMaxString)
	}
	sites := make([]Site, f.Count(9))
	for i := range sites {
		sites[i].Env = f.Str(ldsMaxString)
		sites[i].Impairment = Impairment(f.U8())
		sites[i].PosID = int(int32(f.U32()))
	}
	if err := img.VerifySums(); err != nil {
		return nil, err
	}
	wantDigest := f.Str(128)
	if err := f.Done(); err != nil {
		return nil, err
	}

	// total counts rows whose payload bytes were verified above, so the
	// slab is sized by the file's length, not by a count it claims.
	slab := make([]Entry, total)
	at := 0
	for _, ch := range img.Chunks {
		rows := slab[at : at+int(ch.Count)]
		if err := decodeChunk(rows, ch.Payload, names); err != nil {
			return nil, err
		}
		at += len(rows)
		obsLDSChunksRead.Inc()
	}
	c := &Campaign{
		Dataset: Dataset{Name: name, Entries: make([]*Entry, len(slab))},
		Sites:   sites,
	}
	for i := range slab {
		c.Entries[i] = &slab[i]
	}
	if got := c.Digest(); wantDigest != got {
		return nil, ldsFormat.Corrupt("campaign digest mismatch")
	}
	if err := c.Check(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrLDSCorrupt, err)
	}
	return c, nil
}

// OpenLDS reads a libra-ds v1 file into a campaign.
func OpenLDS(path string) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening %s: %w", path, err)
	}
	c, err := ReadLDS(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
