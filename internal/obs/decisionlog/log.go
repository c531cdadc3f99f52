package decisionlog

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"github.com/libra-wlan/libra/internal/framing"
	"github.com/libra-wlan/libra/internal/obs"
)

// LDL1 on-disk layout, an internal/framing container (all integers
// little-endian):
//
//	header   "LDL1" | u8 version=1 | u8 nfeat | u16 reserved |
//	         u32 chunkRecords | u32 reserved2                   (16 bytes)
//	chunk    "CHNK" | u32 records | u32 payloadLen | payload    (repeated)
//	footer   "LDLF" | u64 totalRecords | u64 drops | u32 chunkCount |
//	         chunkCount x 32-byte SHA-256 over each chunk payload
//	trailer  u64 footerOffset | "LDL1FTR\0"                     (16 bytes)
//
// The reader is fail-closed: a bad magic, version, frame bound, chunk-count
// or record-count mismatch, or checksum mismatch yields ErrCorrupt — a
// truncated or bit-flipped audit log is evidence, never silently partial
// data.
const (
	ldlVersion   = 1
	ldlHeadBytes = 16
)

// ErrCorrupt reports an audit log that fails structural or checksum
// validation.
var ErrCorrupt = errors.New("decisionlog: corrupt audit log")

// ldlFormat frames LDL1: a 16-byte header and u32 payload lengths.
var ldlFormat = framing.Format{Magic: [4]byte{'L', 'D', 'L', '1'}, HeaderLen: ldlHeadBytes, LenBytes: 4, Err: ErrCorrupt}

var (
	obsAuditRecords = obs.NewCounter("libra_audit_records_total", "decision records written to the audit log")
	obsAuditDrops   = obs.NewCounter("libra_audit_drops_total", "decision records dropped because an audit ring was full")
	obsAuditBytes   = obs.NewCounter("libra_audit_bytes_total", "bytes written to the audit log")
	obsAuditChunks  = obs.NewCounter("libra_audit_chunks_total", "chunks flushed to the audit log")
)

// Config sizes a Log.
type Config struct {
	// NFeat is the per-record feature count (1..MaxFeatures).
	NFeat int
	// Rings is the number of independent producer rings — one per serve
	// shard, so shards never contend on a head CAS. Default 1.
	Rings int
	// RingRecords is each ring's capacity (rounded up to a power of two).
	// Default 4096.
	RingRecords int
	// ChunkRecords is the flush granularity of the writer. Default 1024.
	ChunkRecords int
	// Sample is the deterministic 1-in-N sampling divisor; 0 or 1 keeps
	// every decision.
	Sample uint64
	// OnRecord, when set, is invoked by the writer goroutine — never a
	// producer — for each drained record, in drain order, before the bytes
	// are chunked. Live drift monitors tap the stream here, off the decide
	// hot path and single-threaded by construction. The *Record is scratch:
	// valid only for the duration of the call.
	OnRecord func(*Record)
}

// A Log drains per-shard rings into one LDL1 stream. Producers call
// Sampled + Publish on the decide hot path; a single writer goroutine,
// nudged by a channel (never a timer — the package is //lint:clockfree),
// encodes chunks and checksums. Close flushes, writes the footer and
// trailer, and returns the first write error.
//
// Shutdown contract: all producers must have stopped before Close; the
// serving layer guarantees this by draining its shards first.
type Log struct {
	fw    *framing.Writer
	cfg   Config
	rings []*Ring

	notify chan struct{} // producers nudge, capacity 1, never closed
	quit   chan struct{}
	done   chan struct{}

	// writer-goroutine state
	buf     []byte
	scratch Record
	bufRecs uint32
	total   uint64

	closeOnce sync.Once
	closeErr  error
}

// New writes the LDL1 header to w and starts the writer goroutine.
func New(w io.Writer, cfg Config) (*Log, error) {
	if cfg.NFeat < 1 || cfg.NFeat > MaxFeatures {
		return nil, fmt.Errorf("decisionlog: NFeat %d out of range [1,%d]", cfg.NFeat, MaxFeatures)
	}
	if cfg.Rings < 1 {
		cfg.Rings = 1
	}
	if cfg.RingRecords < 1 {
		cfg.RingRecords = 4096
	}
	if cfg.ChunkRecords < 1 {
		cfg.ChunkRecords = 1024
	}
	var head [ldlHeadBytes - 4]byte
	head[0] = ldlVersion
	head[1] = uint8(cfg.NFeat)
	binary.LittleEndian.PutUint32(head[4:], uint32(cfg.ChunkRecords))
	fw, err := ldlFormat.NewWriter(w, head[:])
	if err != nil {
		return nil, fmt.Errorf("decisionlog: %w", err)
	}
	obsAuditBytes.Add(ldlHeadBytes)
	l := &Log{
		fw:     fw,
		cfg:    cfg,
		rings:  make([]*Ring, cfg.Rings),
		notify: make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		buf:    make([]byte, 0, cfg.ChunkRecords*RecordBytes(cfg.NFeat)),
	}
	for i := range l.rings {
		l.rings[i] = NewRing(cfg.RingRecords, cfg.NFeat)
	}
	go l.run()
	return l, nil
}

// Sampled reports whether (reqID, linkID) falls in this log's deterministic
// sample.
//
//lint:noalloc sampling gate runs per decision on the hot path
func (l *Log) Sampled(reqID, linkID uint64) bool {
	return Sampled(l.cfg.Sample, reqID, linkID)
}

// Publish enqueues rec on ring (shard index, taken mod the ring count) and
// nudges the writer. A full ring drops the record; Publish never blocks.
//
//lint:noalloc runs on the decide hot path for every sampled decision
func (l *Log) Publish(ring int, rec *Record) bool {
	ok := l.rings[ring%len(l.rings)].Publish(rec)
	select {
	case l.notify <- struct{}{}:
	default:
	}
	return ok
}

// run is the single writer goroutine: drain every ring, flush full chunks,
// sleep on the notify channel. No timer — flush cadence follows publish
// cadence, keeping the package clock-free.
func (l *Log) run() {
	defer close(l.done)
	sink := l.appendRecord // bind once; drain runs per nudge
	for {
		for _, r := range l.rings {
			r.drain(sink)
		}
		l.flushFull()
		select {
		case <-l.notify:
		case <-l.quit:
			for _, r := range l.rings {
				r.drain(sink)
			}
			l.flushFull()
			l.flushChunk() // partial tail chunk
			return
		}
	}
}

// appendRecord copies one encoded record into the chunk buffer and feeds
// the optional tap. Writer-goroutine only.
func (l *Log) appendRecord(encoded []byte) {
	if l.cfg.OnRecord != nil {
		if l.scratch.decodeFrom(encoded, l.cfg.NFeat) == nil {
			l.cfg.OnRecord(&l.scratch)
		}
	}
	l.buf = append(l.buf, encoded...)
	l.bufRecs++
	l.total++
}

// flushFull writes chunks while the buffer holds at least ChunkRecords.
func (l *Log) flushFull() {
	for l.bufRecs >= uint32(l.cfg.ChunkRecords) {
		l.flushN(uint32(l.cfg.ChunkRecords))
	}
}

// flushChunk writes whatever the buffer holds as one final chunk.
func (l *Log) flushChunk() {
	if l.bufRecs > 0 {
		l.flushN(l.bufRecs)
	}
}

func (l *Log) flushN(recs uint32) {
	size := int(recs) * RecordBytes(l.cfg.NFeat)
	n, _ := l.fw.Chunk(recs, l.buf[:size]) // a write error sticks in fw; Close returns it
	l.buf = append(l.buf[:0], l.buf[size:]...)
	l.bufRecs -= recs
	obsAuditRecords.Add(uint64(recs))
	obsAuditChunks.Inc()
	obsAuditBytes.Add(uint64(n))
}

// Drops returns the records dropped across all rings so far.
func (l *Log) Drops() uint64 {
	var d uint64
	for _, r := range l.rings {
		d += r.Drops()
	}
	return d
}

// Close stops the writer (draining everything already published), writes
// the footer and trailer, and returns the first error. All producers must
// have stopped publishing before Close is called.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		close(l.quit)
		<-l.done
		drops := l.Drops()
		obsAuditDrops.Add(drops)
		var pre []byte
		pre = binary.LittleEndian.AppendUint64(pre, l.total)
		pre = binary.LittleEndian.AppendUint64(pre, drops)
		pre = binary.LittleEndian.AppendUint32(pre, uint32(l.fw.Chunks()))
		n, err := l.fw.Finish(pre, nil)
		obsAuditBytes.Add(uint64(n))
		if err != nil {
			l.closeErr = fmt.Errorf("decisionlog: %w", err)
		}
	})
	return l.closeErr
}

// LogData is a fully validated in-memory audit log.
type LogData struct {
	// NFeat is the per-record feature width the log was written with.
	NFeat int
	// Records holds every record in on-disk (drain) order.
	Records []Record
	// Drops is the producer-side drop count recorded in the footer.
	Drops uint64
}

// Read validates and decodes a complete LDL1 image. Any structural or
// checksum failure returns an error wrapping ErrCorrupt.
func Read(data []byte) (*LogData, error) {
	img, err := ldlFormat.Read(data)
	if err != nil {
		return nil, err
	}
	if v := img.Header.U8(); v != ldlVersion {
		return nil, ldlFormat.Corrupt("unsupported version %d", v)
	}
	nfeat := int(img.Header.U8())
	if nfeat < 1 || nfeat > MaxFeatures {
		return nil, ldlFormat.Corrupt("feature count %d out of range", nfeat)
	}
	f := img.Footer
	total, drops, chunkCount := f.U64(), f.U64(), f.U32()
	if err := img.VerifySums(); err != nil {
		return nil, err
	}
	if err := f.Done(); err != nil {
		return nil, err
	}
	if int64(chunkCount) != int64(len(img.Chunks)) {
		return nil, ldlFormat.Corrupt("footer says %d chunks, file holds %d", chunkCount, len(img.Chunks))
	}

	recBytes := RecordBytes(nfeat)
	out := &LogData{NFeat: nfeat, Drops: drops}
	for ci, ch := range img.Chunks {
		if uint64(len(ch.Payload)) != uint64(ch.Count)*uint64(recBytes) {
			return nil, ldlFormat.Corrupt("chunk %d: %d records but %d payload bytes", ci, ch.Count, len(ch.Payload))
		}
		for off := 0; off < len(ch.Payload); off += recBytes {
			var r Record
			if err := r.decodeFrom(ch.Payload[off:], nfeat); err != nil {
				return nil, ldlFormat.Corrupt("chunk %d record %d: %v", ci, off/recBytes, err)
			}
			out.Records = append(out.Records, r)
		}
	}
	if uint64(len(out.Records)) != total {
		return nil, ldlFormat.Corrupt("footer says %d records, chunks hold %d", total, len(out.Records))
	}
	return out, nil
}

// ReadFile loads and validates an LDL1 file.
func ReadFile(path string) (*LogData, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Read(data)
}

// CanonicalDigest hashes the worker-count-invariant view of a record set:
// latency fields zeroed (they are wall-clock measurements), records sorted
// by SortCanonical, each re-encoded at nfeat features. Two runs that served
// the same sampled decisions produce the same digest regardless of worker,
// connection, or drain interleaving.
func CanonicalDigest(recs []Record, nfeat int) [sha256.Size]byte {
	cp := make([]Record, len(recs))
	copy(cp, recs)
	for i := range cp {
		cp[i].LatAdmissionNs = 0
		cp[i].LatQueueNs = 0
		cp[i].LatCoalesceNs = 0
		cp[i].LatPredictNs = 0
		cp[i].LatEncodeNs = 0
	}
	SortCanonical(cp)
	h := sha256.New()
	buf := make([]byte, RecordBytes(nfeat))
	for i := range cp {
		cp[i].encodeInto(buf, nfeat)
		h.Write(buf)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
