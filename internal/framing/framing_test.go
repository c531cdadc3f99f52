package framing

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

var errTest = errors.New("test: corrupt")

// testFormats are the two length-field widths the schemas use.
var testFormats = []*Format{
	{Magic: [4]byte{'T', 'S', 'T', '1'}, HeaderLen: 8, LenBytes: 8, Err: errTest},
	{Magic: [4]byte{'T', 'S', 'T', '2'}, HeaderLen: 8, LenBytes: 4, Err: errTest},
}

// writeTest frames three payloads between a 4-byte header field and a footer
// of one u32 before the sums and one string after them.
func writeTest(t *testing.T, f *Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := f.NewWriter(&buf, []byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range [][]byte{[]byte("abc"), {}, []byte("defgh")} {
		if _, err := w.Chunk(uint32(i), p); err != nil {
			t.Fatal(err)
		}
	}
	post := binary.LittleEndian.AppendUint32(nil, 2)
	if _, err := w.Finish(binary.LittleEndian.AppendUint32(nil, 7), append(post, "ok"...)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for _, f := range testFormats {
		img, err := f.Read(writeTest(t, f))
		if err != nil {
			t.Fatalf("%s: %v", f.Magic, err)
		}
		if h := img.Header.U32(); h != 0x04030201 || img.Header.Done() != nil {
			t.Fatalf("%s: header field %#x", f.Magic, h)
		}
		if len(img.Chunks) != 3 || string(img.Chunks[2].Payload) != "defgh" || img.Chunks[2].Count != 2 {
			t.Fatalf("%s: chunks %+v", f.Magic, img.Chunks)
		}
		pre := img.Footer.U32()
		if err := img.VerifySums(); err != nil {
			t.Fatal(err)
		}
		if post := img.Footer.Str(8); pre != 7 || post != "ok" || img.Footer.Done() != nil {
			t.Fatalf("%s: footer fields %d %q", f.Magic, pre, post)
		}
	}
}

// TestReadFailsClosed damages a valid image in each way the reader checks;
// every error must wrap the format's sentinel.
func TestReadFailsClosed(t *testing.T) {
	for _, f := range testFormats {
		good := writeTest(t, f)
		frame := 8 + f.LenBytes
		lastLen := f.HeaderLen + 2*frame + 3 + 8 // the "defgh" frame's length field
		for name, mutate := range map[string]func([]byte) []byte{
			"short":         func(b []byte) []byte { return b[:f.HeaderLen+trailerLen-1] },
			"magic":         func(b []byte) []byte { b[0]++; return b },
			"trailer magic": func(b []byte) []byte { b[len(b)-1]++; return b },
			"footer offset": func(b []byte) []byte { b[len(b)-trailerLen]++; return b },
			"footer offset wraps": func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[len(b)-trailerLen:], 1<<64-1)
				return b
			},
			"frame magic":         func(b []byte) []byte { b[f.HeaderLen]++; return b },
			"payload past footer": func(b []byte) []byte { b[lastLen]++; return b },
			"gap before footer":   func(b []byte) []byte { b[lastLen]--; return b },
			"payload sum":         func(b []byte) []byte { b[f.HeaderLen+frame]++; return b },
		} {
			img, err := f.Read(mutate(append([]byte(nil), good...)))
			if err == nil {
				img.Footer.U32()
				err = img.VerifySums()
			}
			if !errors.Is(err, errTest) {
				t.Errorf("%s %s: got %v, want the sentinel", f.Magic, name, err)
			}
		}
	}
}

// TestCountRefusesImpossible pins the allocation guard: a count whose
// elements cannot fit in the bytes left is refused and sticks.
func TestCountRefusesImpossible(t *testing.T) {
	f := testFormats[0]
	b := binary.LittleEndian.AppendUint32(nil, 3)
	b = append(b, make([]byte, 11)...)
	if c := (&Cursor{f: f, b: b}); c.Count(4) != 0 || !errors.Is(c.Done(), errTest) {
		t.Fatal("3 four-byte elements accepted in 11 bytes")
	}
	if c := (&Cursor{f: f, b: b}); c.Count(3) != 3 {
		t.Fatal("3 three-byte elements refused in 11 bytes")
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n--; w.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestWriterErrorSticks: after the first failed write nothing more is
// written, but Chunk and Finish keep counting and return that error.
func TestWriterErrorSticks(t *testing.T) {
	f := testFormats[1]
	w, err := f.NewWriter(&failWriter{n: 3}, make([]byte, 4))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := w.Chunk(1, []byte("x")); n != 13 || err != nil {
		t.Fatalf("first chunk: %d, %v", n, err)
	}
	if n, err := w.Chunk(1, []byte("y")); n != 13 || err == nil {
		t.Fatalf("second chunk: %d, %v", n, err)
	}
	if n, err := w.Finish(nil, nil); n != 4+2*32+trailerLen || err == nil || w.Chunks() != 2 {
		t.Fatalf("finish: %d, %v", n, err)
	}
}
