// Package framing is the one binary-container codec under the repository's
// chunked files: the libra-ds campaign container (LDS1, internal/dataset)
// and the serve fleet's decision audit log (LDL1, internal/obs/decisionlog).
// A schema supplies its magic, header length, payload-length width and
// sentinel error; the layout around its fields is fixed here, all integers
// little-endian:
//
//	header   magic | schema header fields                 (HeaderLen bytes)
//	chunk    "CHNK" | u32 count | u32 or u64 payloadLen | payload  (repeated)
//	footer   magic[:3]+"F" | schema fields | one SHA-256 per chunk payload |
//	         schema fields
//	trailer  u64 footerOffset | magic | "FTR\0"
//
// The reader is fail-closed: the magic, the trailer, the footer offset, a
// frame tiling of header…footer with nothing left over, and every chunk sum
// must check, and every failure wraps the schema's sentinel. Nothing is
// sized by a count the file claims, only by the bytes it holds.
//
//lint:clockfree container bytes must depend on what is written, never on when
package framing

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

const trailerLen = 16

var chunkMagic = [4]byte{'C', 'H', 'N', 'K'}

// A Format is one container schema's framing parameters.
type Format struct {
	// Magic opens the file; the footer magic and the trailer derive from it.
	Magic [4]byte
	// HeaderLen is the header's width in bytes, magic included.
	HeaderLen int
	// LenBytes is the width of a frame's payload-length field: 4 or 8.
	LenBytes int
	// Err is the sentinel every reader failure wraps.
	Err error
}

func (f *Format) footerMagic() [4]byte {
	return [4]byte{f.Magic[0], f.Magic[1], f.Magic[2], 'F'}
}

func (f *Format) trailerMagic() [8]byte {
	return [8]byte{f.Magic[0], f.Magic[1], f.Magic[2], f.Magic[3], 'F', 'T', 'R', 0}
}

// Corrupt returns a reader error wrapping the format's sentinel.
func (f *Format) Corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", f.Err, fmt.Sprintf(format, args...))
}

// A Writer streams one container: NewWriter writes the header, Chunk frames
// each payload, Finish writes the footer and trailer. After a failed write
// it writes nothing more but keeps counting, and every later call returns
// the first error.
type Writer struct {
	f     *Format
	w     io.Writer
	off   int64
	sums  [][sha256.Size]byte
	frame [16]byte
	err   error
}

// NewWriter writes the magic and the schema's header fields, which fill the
// rest of HeaderLen.
func (f *Format) NewWriter(w io.Writer, fields []byte) (*Writer, error) {
	fw := &Writer{f: f, w: w, off: int64(f.HeaderLen)}
	fw.write(append(append(make([]byte, 0, f.HeaderLen), f.Magic[:]...), fields...), "header")
	return fw, fw.err
}

func (w *Writer) write(b []byte, what string) {
	if w.err == nil {
		if _, err := w.w.Write(b); err != nil {
			w.err = fmt.Errorf("writing %s %s: %w", w.f.Magic, what, err)
		}
	}
}

// Chunk frames one payload of count records and records its SHA-256. It
// returns the bytes framed.
func (w *Writer) Chunk(count uint32, payload []byte) (int, error) {
	n := 8 + w.f.LenBytes
	copy(w.frame[:4], chunkMagic[:])
	binary.LittleEndian.PutUint32(w.frame[4:], count)
	if w.f.LenBytes == 8 {
		binary.LittleEndian.PutUint64(w.frame[8:], uint64(len(payload)))
	} else {
		binary.LittleEndian.PutUint32(w.frame[8:], uint32(len(payload)))
	}
	w.sums = append(w.sums, sha256.Sum256(payload))
	w.write(w.frame[:n], "chunk frame")
	w.write(payload, "chunk payload")
	n += len(payload)
	w.off += int64(n)
	return n, w.err
}

// Chunks returns the number of chunks framed so far.
func (w *Writer) Chunks() int { return len(w.sums) }

// Finish writes the footer (footer magic | pre | one SHA-256 per chunk |
// post) and the trailer that points back at it. It returns the bytes
// written.
func (w *Writer) Finish(pre, post []byte) (int, error) {
	fm, tm := w.f.footerMagic(), w.f.trailerMagic()
	b := make([]byte, 0, len(fm)+len(pre)+len(w.sums)*sha256.Size+len(post)+trailerLen)
	b = append(append(b, fm[:]...), pre...)
	for i := range w.sums {
		b = append(b, w.sums[i][:]...)
	}
	b = append(b, post...)
	b = binary.LittleEndian.AppendUint64(b, uint64(w.off))
	b = append(b, tm[:]...)
	w.write(b, "footer")
	return len(b), w.err
}

// A Chunk is one framed payload of Count records.
type Chunk struct {
	Count   uint32
	Payload []byte
}

// An Image is a container whose framing checked. Header and Footer hold
// the schema's fields; the chunk sums sit in the footer where the schema
// calls VerifySums. Payloads alias the image bytes.
type Image struct {
	Header *Cursor
	Chunks []Chunk
	Footer *Cursor
}

// Read checks a complete image's magic, trailer, footer offset and footer
// magic, and splits header…footer into chunk frames that must tile it
// exactly.
func (f *Format) Read(data []byte) (*Image, error) {
	if len(data) < f.HeaderLen+trailerLen {
		return nil, f.Corrupt("%d bytes is shorter than header and trailer", len(data))
	}
	if [4]byte(data[:4]) != f.Magic {
		return nil, f.Corrupt("bad magic %q", data[:4])
	}
	end := len(data) - trailerLen
	if [8]byte(data[end+8:]) != f.trailerMagic() {
		return nil, f.Corrupt("bad trailer magic %q", data[end+8:])
	}
	// end >= HeaderLen >= 4, so end-4 cannot wrap; ftrOff+4 could.
	ftrOff := binary.LittleEndian.Uint64(data[end:])
	if ftrOff < uint64(f.HeaderLen) || ftrOff > uint64(end-4) {
		return nil, f.Corrupt("footer offset %d out of bounds", ftrOff)
	}
	if [4]byte(data[ftrOff:ftrOff+4]) != f.footerMagic() {
		return nil, f.Corrupt("bad footer magic %q", data[ftrOff:ftrOff+4])
	}
	img := &Image{
		Header: &Cursor{f: f, b: data[:f.HeaderLen], off: 4},
		Footer: &Cursor{f: f, b: data[:end], off: int(ftrOff) + 4},
	}
	frames := &Cursor{f: f, b: data[:ftrOff], off: f.HeaderLen}
	for frames.left() > 0 {
		at := frames.off
		magic := frames.take(4)
		count := frames.U32()
		size := uint64(frames.U32())
		if f.LenBytes == 8 {
			size |= uint64(frames.U32()) << 32
		}
		payload := frames.take(size)
		if frames.err != nil {
			return nil, frames.err
		}
		if [4]byte(magic) != chunkMagic {
			return nil, f.Corrupt("offset %d: chunk %d: bad frame magic %q", at, len(img.Chunks), magic)
		}
		img.Chunks = append(img.Chunks, Chunk{count, payload})
	}
	return img, nil
}

// VerifySums reads one SHA-256 per chunk from the footer and checks each
// against its payload.
func (img *Image) VerifySums() error {
	sums := img.Footer.take(uint64(len(img.Chunks)) * sha256.Size)
	if err := img.Footer.err; err != nil {
		return err
	}
	for i, ch := range img.Chunks {
		if sha256.Sum256(ch.Payload) != [sha256.Size]byte(sums[i*sha256.Size:]) {
			return img.Footer.f.Corrupt("chunk %d: payload SHA-256 mismatch", i)
		}
	}
	return nil
}

// A Cursor reads a schema's fields with bounds checks. The first overrun
// sticks: later reads return zero values, and Done reports it.
type Cursor struct {
	f   *Format
	b   []byte // the image up to the end of the region; off indexes it
	off int
	err error
}

// left returns the bytes left in the region.
func (c *Cursor) left() int { return len(c.b) - c.off }

func (c *Cursor) take(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if n > uint64(c.left()) {
		c.err = c.f.Corrupt("offset %d: need %d bytes, have %d", c.off, n, c.left())
		return nil
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian u32.
func (c *Cursor) U32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian u64.
func (c *Cursor) U64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Str reads a u32-length-prefixed string of at most maxLen bytes.
func (c *Cursor) Str(maxLen uint32) string {
	n := c.U32()
	if c.err == nil && n > maxLen {
		c.err = c.f.Corrupt("offset %d: string length %d exceeds limit %d", c.off, n, maxLen)
	}
	return string(c.take(uint64(n)))
}

// Count reads a u32 element count whose elements take at least minBytes
// each, and refuses a count the remaining bytes cannot hold, so the caller
// may size an allocation by it.
func (c *Cursor) Count(minBytes int) int {
	n := c.U32()
	if c.err == nil && uint64(n)*uint64(minBytes) > uint64(c.left()) {
		c.err = c.f.Corrupt("offset %d: %d elements cannot fit in %d bytes", c.off, n, c.left())
		return 0
	}
	return int(n)
}

// Done returns the first overrun, or an error if bytes are left over.
func (c *Cursor) Done() error {
	if c.err == nil && c.left() != 0 {
		c.err = c.f.Corrupt("offset %d: %d unread bytes", c.off, c.left())
	}
	return c.err
}
