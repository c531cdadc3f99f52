package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
)

// The binary protocol's socket loops (the pure codec is wire.go). Each
// connection runs two goroutines:
//
//   - the reader decodes decide frames and submits them to the router
//     without waiting for answers, so a client can keep hundreds of
//     requests in flight on one connection;
//   - the writer answers in submission order (FIFO per connection),
//     buffering frames and flushing only when it has caught up with the
//     reader — under pipelined load many responses leave in one syscall.
//
// Backpressure is layered: the router's admission queues shed with
// wireErrOverloaded when full, and the per-connection pipeline channel
// bounds how far the reader can run ahead of the writer (when it is full
// the reader blocks, which in turn pushes TCP flow control back to the
// client). Requests carry the connection's context — there are no
// per-request timers on this path; a client that wants to abandon work
// closes the connection.

// DefaultPipelineDepth bounds in-flight requests per connection.
const DefaultPipelineDepth = 1024

// binEntry is one slot in a connection's FIFO response order.
type binEntry struct {
	reqID     uint64
	wantProba bool
	errCode   uint8    // answered immediately when != 0
	t         *Pending // otherwise resolved by the coalescer
}

// BinaryServer serves the binary decide protocol over TCP.
type BinaryServer struct {
	rt    *Router
	depth int

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]context.CancelFunc
	closed bool
	wg     sync.WaitGroup
}

// NewBinaryServer wraps the router in a binary-protocol listener.
// pipelineDepth bounds per-connection in-flight requests (<= 0 selects
// DefaultPipelineDepth).
func NewBinaryServer(rt *Router, pipelineDepth int) *BinaryServer {
	if pipelineDepth <= 0 {
		pipelineDepth = DefaultPipelineDepth
	}
	return &BinaryServer{rt: rt, depth: pipelineDepth, conns: make(map[net.Conn]context.CancelFunc)}
}

// Serve accepts connections on ln until Close. It returns nil after Close,
// or the first accept error otherwise.
func (s *BinaryServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("serve: binary server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			cancel()
			conn.Close()
			return nil
		}
		s.conns[conn] = cancel
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(ctx, cancel, conn)
	}
}

// Close stops accepting, disconnects every connection, and waits for the
// connection goroutines to exit. It does not close the router.
func (s *BinaryServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	for conn, cancel := range s.conns {
		cancel()
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

// forget drops conn from the tracked set.
func (s *BinaryServer) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// serveConn runs one connection: handshake, then the reader loop in this
// goroutine and the FIFO writer in a second one.
func (s *BinaryServer) serveConn(ctx context.Context, cancel context.CancelFunc, conn net.Conn) {
	defer s.wg.Done()
	defer s.forget(conn)
	defer conn.Close()
	defer cancel()

	br := bufio.NewReaderSize(conn, 64<<10)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != wireMagic {
		return
	}
	if _, err := conn.Write(wireMagic[:]); err != nil {
		return
	}

	order := make(chan binEntry, s.depth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(ctx, conn, order)
	}()

	s.readLoop(ctx, br, order)
	close(order)
	<-writerDone
}

// readLoop decodes decide frames and submits them to the router. Malformed
// frames that still carry a parsable request ID get an error response in
// order; framing-level corruption tears the connection down.
func (s *BinaryServer) readLoop(ctx context.Context, br *bufio.Reader, order chan<- binEntry) {
	var (
		lenbuf  [4]byte
		payload []byte
		req     wireRequest
	)
	for {
		if _, err := io.ReadFull(br, lenbuf[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(lenbuf[:])
		if n < 1 || n > wireMaxFrame {
			return
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		if payload[0] == frameFeedback {
			// Ground truth is fire-and-forget: no response, no FIFO slot.
			if reqID, linkID, action, err := decodeFeedback(payload); err == nil {
				s.rt.Feedback(reqID, linkID, action)
			} else {
				obsErrors.Inc()
			}
			continue
		}
		t0 := nowStamp()
		if err := decodeDecideRequest(payload, &req); err != nil {
			// The frame boundary is intact (length prefix honored), so the
			// stream is still in sync; answer in order and keep going. Echo
			// the request ID when the header was long enough to carry one.
			var rid uint64
			if len(payload) >= 12 {
				rid = binary.LittleEndian.Uint64(payload[4:12])
			}
			obsErrors.Inc()
			order <- binEntry{reqID: rid, errCode: wireErrBadRequest}
			continue
		}
		if len(req.X) != dataset.NumFeatures {
			obsErrors.Inc()
			order <- binEntry{reqID: req.ReqID, errCode: wireErrBadRequest}
			continue
		}
		x := make([]float64, len(req.X))
		for i, v := range req.X {
			x[i] = float64(v)
		}
		wantProba := req.Flags&wireFlagProba != 0
		t, err := s.rt.SubmitTimed(ctx, req.LinkID, x, !wantProba, req.ReqID, t0)
		if err != nil {
			order <- binEntry{reqID: req.ReqID, errCode: wireErrCode(err)}
			continue
		}
		order <- binEntry{reqID: req.ReqID, wantProba: wantProba, t: t}
	}
}

// writeLoop answers entries in FIFO order, flushing only when it has
// drained everything the reader submitted so far.
func (s *BinaryServer) writeLoop(ctx context.Context, conn net.Conn, order <-chan binEntry) {
	bw := bufio.NewWriterSize(conn, 64<<10)
	var (
		buf    []byte
		proba  []float32
		ctxErr uint8 // once the conn context dies, fail the rest fast
	)
	for e := range order {
		buf = buf[:0]
		var answered *Pending // emitted after its bytes are written
		var tEnc time.Time
		switch {
		case e.errCode != 0:
			buf = appendWireError(buf, e.reqID, e.errCode)
		case ctxErr != 0:
			buf = appendWireError(buf, e.reqID, ctxErr)
		default:
			select {
			case <-e.t.Done():
			case <-ctx.Done():
				ctxErr = wireErrCanceled
			}
			if ctxErr != 0 {
				buf = appendWireError(buf, e.reqID, ctxErr)
				break
			}
			dec, err := e.t.Result()
			if err != nil {
				buf = appendWireError(buf, e.reqID, wireErrCode(err))
				break
			}
			tEnc = nowStamp()
			proba = proba[:0]
			if e.wantProba {
				for _, p := range dec.Proba {
					proba = append(proba, float32(p))
				}
			}
			buf = appendResult(buf, e.reqID, uint8(dec.Action), uint32(dec.Model.ID), proba)
			if a := int(dec.Action); a >= 0 && a < len(obsDecisions) {
				obsDecisions[a].Inc()
			}
			answered = e.t
		}
		if _, err := bw.Write(buf); err != nil {
			drainOrder(order)
			return
		}
		if answered != nil {
			s.rt.EmitDecision(answered, nowStamp().Sub(tEnc))
		}
		if len(order) == 0 {
			if err := bw.Flush(); err != nil {
				drainOrder(order)
				return
			}
		}
	}
	bw.Flush()
}

// drainOrder consumes the rest of a dead connection's order channel so the
// reader can never block on a writer that already exited.
func drainOrder(order <-chan binEntry) {
	for range order {
	}
}

// BinaryClient speaks the binary decide protocol over one connection. It
// is not safe for concurrent use; pipelining happens on a single
// goroutine: Send any number of requests, Flush, then Recv each response
// in submission order.
type BinaryClient struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	reqbuf  []byte
	lenbuf  [4]byte
	payload []byte
	resp    WireResponse
}

// NewBinaryClient performs the protocol handshake over an established
// connection (tests use net.Pipe or an in-process listener).
func NewBinaryClient(conn net.Conn) (*BinaryClient, error) {
	if _, err := conn.Write(wireMagic[:]); err != nil {
		conn.Close()
		return nil, err
	}
	var echo [4]byte
	if _, err := io.ReadFull(conn, echo[:]); err != nil {
		conn.Close()
		return nil, err
	}
	if echo != wireMagic {
		conn.Close()
		return nil, errors.New("serve: bad binary-protocol handshake")
	}
	return &BinaryClient{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}, nil
}

// Send buffers one decide request; call Flush to put buffered requests on
// the wire.
func (c *BinaryClient) Send(reqID, linkID uint64, x []float32, wantProba bool) error {
	c.reqbuf = appendDecideRequest(c.reqbuf[:0], reqID, linkID, wantProba, x)
	_, err := c.bw.Write(c.reqbuf)
	return err
}

// SendFeedback buffers one ground-truth feedback frame (fire-and-forget: no
// response will come back, and Recv never returns it).
func (c *BinaryClient) SendFeedback(reqID, linkID uint64, action uint8) error {
	c.reqbuf = appendFeedback(c.reqbuf[:0], reqID, linkID, action)
	_, err := c.bw.Write(c.reqbuf)
	return err
}

// Flush writes buffered requests to the connection.
func (c *BinaryClient) Flush() error { return c.bw.Flush() }

// Recv reads the next response. The returned WireResponse (including its
// Proba slice) is reused by the next Recv.
func (c *BinaryClient) Recv() (*WireResponse, error) {
	if _, err := io.ReadFull(c.br, c.lenbuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(c.lenbuf[:])
	if n < 1 || n > wireMaxFrame {
		return nil, errFrameTooLarge
	}
	if cap(c.payload) < int(n) {
		c.payload = make([]byte, n)
	}
	c.payload = c.payload[:n]
	if _, err := io.ReadFull(c.br, c.payload); err != nil {
		return nil, err
	}
	if err := decodeResponse(c.payload, &c.resp); err != nil {
		return nil, err
	}
	return &c.resp, nil
}

// Close tears the connection down.
func (c *BinaryClient) Close() error { return c.conn.Close() }
