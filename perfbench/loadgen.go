package main

import (
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"github.com/libra-wlan/libra/internal/serve"
)

// The open-loop generator. Requests are due on a fixed schedule (request g
// of a phase at start + g/rate) whatever the server does, and every latency
// is timed from the request's scheduled send time, so a stall charges the
// wait it imposes on every request queued behind it. Request g goes out on
// connection g mod C; each connection has one sending and one receiving
// goroutine (the LiB1 protocol answers each connection in FIFO order).

// wireErrOverloaded is the LiB1 error code of an admission shed (DESIGN.md
// §9, "Error codes").
const wireErrOverloaded = 1

// pacer sleeps until a deadline with microsecond precision without holding
// a scheduler P. Go's timers round sub-millisecond sleeps up to about a
// millisecond on Linux (the netpoller waits in whole milliseconds), which
// alone would break a 2 ms latency limit; nanosleep(2) is precise but keeps
// its P in a syscall until sysmon retakes it, stalling the goroutines queued
// on that P for up to 10 ms. A timerfd armed with the remaining time and
// read through the netpoller parks only the goroutine, and the kernel's
// high-resolution timer wakes it.
type pacer struct {
	fd int
	f  *os.File
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "pacer-timerfd")}, nil
}

const clockMonotonic = 1 // CLOCK_MONOTONIC

// sleepUntil blocks until t.
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec { it_interval, it_value } of {tv_sec, tv_nsec}; a
	// zero interval makes the timer one-shot.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) Close() error { return p.f.Close() }

// loadConn is one client connection. The mutex orders the sender's decide
// frames and the receiver's feedback frames on the shared write buffer; the
// read side belongs to the receiver alone.
type loadConn struct {
	conn net.Conn
	c    *serve.BinaryClient
	mu   sync.Mutex
}

// Generator drives a BinaryServer over a fixed set of connections.
type Generator struct {
	conns    []*loadConn
	rows32   [][]float32
	want     []int   // expected class per replay row
	labels   []uint8 // ground truth per replay row, sent as feedback
	feedback bool
	nextID   uint64 // request IDs are unique across phases
}

// dialGenerator opens conns connections to addr.
func dialGenerator(addr string, conns int, rows32 [][]float32, want []int, labels []uint8, feedback bool) (*Generator, error) {
	g := &Generator{rows32: rows32, want: want, labels: labels, feedback: feedback}
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		c, err := serve.NewBinaryClient(conn)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("handshake: %w", err)
		}
		g.conns = append(g.conns, &loadConn{conn: conn, c: c})
	}
	return g, nil
}

// Close tears every connection down.
func (g *Generator) Close() {
	for _, lc := range g.conns {
		lc.c.Close()
	}
	g.conns = nil
}

// Phase is what one open-loop phase observed.
type Phase struct {
	Rate     float64
	Start    time.Time
	Sent     int
	OK       int
	Shed     int
	Errors   int // error responses other than sheds
	Wrong    int // answered with an action other than the expected class
	Lat      []time.Duration
	Late     []time.Duration
	Sched    []time.Duration // scheduled offset of each latency sample
	Requests []Span          // per-request spans, when traced
	Err      error
}

// Failed counts requests that missed: sheds, errors and wrong answers.
func (p *Phase) Failed() int { return p.Shed + p.Errors + p.Wrong }

// Run offers rate requests per second for dur. parent >= 0 records one span
// per request (start = scheduled send, end = response) under that span.
func (g *Generator) Run(rate float64, dur time.Duration, parent int) *Phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	base := g.nextID
	g.nextID += uint64(n)
	C := len(g.conns)
	ph := &Phase{Rate: rate, Sent: n}
	interval := time.Duration(float64(time.Second) / rate)
	// A short lead lets every sender reach its first deadline on time.
	ph.Start = time.Now().Add(2 * time.Millisecond)

	type laneOut struct {
		lat, late, sched []time.Duration
		spans            []Span
		ok, shed, errs   int
		wrong            int
		err              error
	}
	outs := make([]laneOut, C)
	sendErrs := make([]error, C)
	var wg sync.WaitGroup
	for c := 0; c < C; c++ {
		lc := g.conns[c]
		mine := (n - c + C - 1) / C
		out := &outs[c]
		out.late = make([]time.Duration, mine)
		out.lat = make([]time.Duration, 0, mine)
		out.sched = make([]time.Duration, 0, mine)
		// Responses to a phase must arrive well within its length plus a
		// drain allowance; anything slower is a hung server.
		lc.conn.SetReadDeadline(ph.Start.Add(dur + 20*time.Second))
		// A sender that fails unblocks its receiver through the deadline.
		fail := func(err error) {
			sendErrs[c] = err
			lc.conn.SetReadDeadline(time.Now())
		}
		wg.Add(2)
		go func(c int) { // sender
			defer wg.Done()
			pc, err := newPacer()
			if err != nil {
				fail(err)
				return
			}
			defer pc.Close()
			k := 0
			for k < mine {
				if err := pc.sleepUntil(ph.Start.Add(time.Duration(c+k*C) * interval)); err != nil {
					fail(err)
					return
				}
				lc.mu.Lock()
				now := time.Now()
				for k < mine {
					gi := c + k*C
					due := ph.Start.Add(time.Duration(gi) * interval)
					if due.After(now) {
						break
					}
					row := gi % len(g.rows32)
					if err := lc.c.Send(base+uint64(gi), uint64(row), g.rows32[row], false); err != nil {
						lc.mu.Unlock()
						fail(err)
						return
					}
					out.late[k] = now.Sub(due)
					k++
				}
				err := lc.c.Flush()
				lc.mu.Unlock()
				if err != nil {
					fail(err)
					return
				}
			}
		}(c)
		go func(c int) { // receiver
			defer wg.Done()
			for k := 0; k < mine; k++ {
				resp, err := lc.c.Recv()
				if err != nil {
					out.err = fmt.Errorf("recv %d of %d: %w", k, mine, err)
					return
				}
				now := time.Now()
				gi := c + k*C
				id := base + uint64(gi)
				if resp.ReqID != id {
					out.err = fmt.Errorf("response order broken: got req %d want %d", resp.ReqID, id)
					return
				}
				off := time.Duration(gi) * interval
				due := ph.Start.Add(off)
				out.lat = append(out.lat, now.Sub(due))
				out.sched = append(out.sched, off)
				if parent >= 0 {
					out.spans = append(out.spans, Span{Name: "loadgen.request", Start: due, End: now, Parent: parent, ReqID: id})
				}
				row := gi % len(g.rows32)
				switch {
				case resp.Err == wireErrOverloaded:
					out.shed++
					continue
				case resp.Err != 0:
					out.errs++
					continue
				case int(resp.Action) != g.want[row]:
					out.wrong++
				default:
					out.ok++
				}
				if g.feedback {
					lc.mu.Lock()
					err = lc.c.SendFeedback(id, uint64(row), g.labels[row])
					lc.mu.Unlock()
					if err != nil {
						out.err = err
						return
					}
				}
			}
			if g.feedback {
				// The last feedback frames may still sit in the buffer.
				lc.mu.Lock()
				err := lc.c.Flush()
				lc.mu.Unlock()
				if err != nil {
					out.err = err
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range outs {
		o := &outs[c]
		if sendErrs[c] != nil {
			o.err = sendErrs[c]
		}
		ph.Lat = append(ph.Lat, o.lat...)
		ph.Late = append(ph.Late, o.late...)
		ph.Sched = append(ph.Sched, o.sched...)
		ph.Requests = append(ph.Requests, o.spans...)
		ph.OK += o.ok
		ph.Shed += o.shed
		ph.Errors += o.errs
		ph.Wrong += o.wrong
		if o.err != nil && ph.Err == nil {
			ph.Err = o.err
		}
	}
	return ph
}

// buckets splits the phase's latencies into k equal slices of its
// schedule.
func (p *Phase) buckets(k int, dur time.Duration) [][]time.Duration {
	out := make([][]time.Duration, k)
	for i, off := range p.Sched {
		w := min(int(int64(off)*int64(k)/int64(dur)), k-1)
		out[w] = append(out[w], p.Lat[i])
	}
	return out
}

// windows summarizes each of k equal slices of the phase's schedule.
func (p *Phase) windows(k int, dur time.Duration) []Timing {
	out := make([]Timing, k)
	for i, b := range p.buckets(k, dur) {
		out[i] = summarize(b)
	}
	return out
}

// windowPercentile is the median over k equal windows of each window's
// percentile pct. A burst of CPU steal on a shared box stalls one or two
// windows; the median window still reads the program, while real overload
// lifts every window.
func (p *Phase) windowPercentile(pct float64, k int, dur time.Duration) float64 {
	vals := make([]float64, k)
	for i, b := range p.buckets(k, dur) {
		sortDur(b)
		vals[i] = ms(percentileSorted(b, pct))
	}
	return medianFloat(vals)
}

// growing reports a backlog that builds over the phase: the median latency
// of the schedule's last quarter exceeds the first quarter's by more than
// slack.
func (p *Phase) growing(dur, slack time.Duration) bool {
	var first, last []time.Duration
	for i, off := range p.Sched {
		switch {
		case off < dur/4:
			first = append(first, p.Lat[i])
		case off >= dur-dur/4:
			last = append(last, p.Lat[i])
		}
	}
	sortDur(first)
	sortDur(last)
	return median(last) > median(first)+slack
}

func sortDur(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }
