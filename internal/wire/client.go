package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"krr/internal/telemetry"
	"krr/internal/trace"
)

// latencyRing sizes the in-flight timestamp ring for ack-latency
// sampling. Frames deeper in flight than the ring simply go unsampled
// (their slot is reused; the seq tag detects the reuse).
const latencyRing = 4096

// Stats summarizes one client connection.
type Stats struct {
	// Frames and Requests count everything sent.
	Frames, Requests uint64
	// AckedFrames/AckedRequests were admitted into the server's queue.
	AckedFrames, AckedRequests uint64
	// DroppedFrames/DroppedRequests were shed by the server's bounded
	// queue (StatusOverloaded).
	DroppedFrames, DroppedRequests uint64
}

// Client speaks the wire protocol from the load-generator side: one
// goroutine calls SendBatch/Flush/Close, while an internal reader
// consumes the server's ack stream, keeping drop accounting and
// ack-latency samples without ever blocking the send path.
type Client struct {
	conn  net.Conn
	bw    *bufio.Writer
	enc   []byte
	start time.Time

	seq    uint64 // frames written (send side only)
	reqs   uint64
	sendMu sync.Mutex // guards the send path against concurrent misuse

	// counts is a FIFO of per-frame record counts, pushed by the
	// sender and popped by the ack reader (acks arrive in frame
	// order). Bounded in practice by frames in flight.
	countMu sync.Mutex
	counts  []int
	head    int

	// tagged timestamp ring: slot i holds the send time of frame seq
	// when tags[i] == seq, letting the ack reader compute frame→ack
	// round trips lock-free.
	tags  [latencyRing]atomic.Uint64
	times [latencyRing]atomic.Int64

	// Latency, when non-nil, receives one ack round-trip observation
	// (seconds) per sampled frame. Set it before the first SendBatch.
	Latency *telemetry.Histogram

	ackWg       sync.WaitGroup
	ackedFrames atomic.Uint64
	ackedReqs   atomic.Uint64
	dropFrames  atomic.Uint64
	dropReqs    atomic.Uint64
	ackErr      atomic.Pointer[error]
}

// Dial connects to a wire server and writes the tenant header.
func Dial(addr, tenant string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, tenant)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection: it writes the tenant
// header and starts the ack reader. The client owns conn afterwards.
func NewClient(conn net.Conn, tenant string) (*Client, error) {
	c := &Client{
		conn:  conn,
		bw:    bufio.NewWriterSize(conn, 1<<16),
		start: time.Now(),
	}
	if err := WriteHeader(c.bw, tenant); err != nil {
		return nil, err
	}
	c.ackWg.Add(1)
	go c.readAcks()
	return c, nil
}

// popCount removes the oldest in-flight frame's record count.
func (c *Client) popCount() int {
	c.countMu.Lock()
	defer c.countMu.Unlock()
	if c.head >= len(c.counts) {
		return 0 // server acked more frames than we sent: broken peer
	}
	n := c.counts[c.head]
	c.head++
	// Compact once the consumed prefix dominates, keeping the FIFO
	// allocation proportional to frames in flight.
	if c.head > 1024 && c.head*2 > len(c.counts) {
		c.counts = append(c.counts[:0], c.counts[c.head:]...)
		c.head = 0
	}
	return n
}

// pushCount records a sent frame's record count and timestamp.
func (c *Client) pushCount(seq uint64, n int) {
	c.countMu.Lock()
	c.counts = append(c.counts, n)
	c.countMu.Unlock()
	slot := seq % latencyRing
	c.times[slot].Store(int64(time.Since(c.start)))
	c.tags[slot].Store(seq)
}

// readAcks drains the server's status stream until EOF.
func (c *Client) readAcks() {
	defer c.ackWg.Done()
	br := bufio.NewReaderSize(c.conn, 1<<12)
	var ackSeq uint64
	for {
		status, err := br.ReadByte()
		if err != nil {
			if err != io.EOF {
				e := fmt.Errorf("wire: ack stream: %w", err)
				c.ackErr.Store(&e)
			}
			return
		}
		n := c.popCount()
		switch status {
		case StatusOK:
			c.ackedFrames.Add(1)
			c.ackedReqs.Add(uint64(n))
			slot := ackSeq % latencyRing
			if c.tags[slot].Load() == ackSeq && c.Latency != nil {
				c.Latency.Observe(float64(int64(time.Since(c.start))-c.times[slot].Load()) / 1e9)
			}
		case StatusOverloaded:
			c.dropFrames.Add(1)
			c.dropReqs.Add(uint64(n))
		default:
			e := fmt.Errorf("%w: server reported status %#x", ErrBadFrame, status)
			c.ackErr.Store(&e)
			return
		}
		ackSeq++
	}
}

// SendBatch encodes reqs as one or more frames (splitting at
// MaxFrameRecords) and writes them to the connection. The encode
// buffer is reused across calls; steady-state sends allocate nothing.
func (c *Client) SendBatch(reqs []trace.Request) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	for len(reqs) > 0 {
		n := len(reqs)
		if n > MaxFrameRecords {
			n = MaxFrameRecords
		}
		c.enc = AppendFrame(c.enc[:0], reqs[:n])
		if _, err := c.bw.Write(c.enc); err != nil {
			return err
		}
		c.pushCount(c.seq, n)
		c.seq++
		c.reqs += uint64(n)
		reqs = reqs[n:]
	}
	return nil
}

// Flush pushes buffered frames to the socket.
func (c *Client) Flush() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.bw.Flush()
}

// Stats returns the connection's current accounting. Ack-side numbers
// trail the send side by the frames still in flight.
func (c *Client) Stats() Stats {
	c.sendMu.Lock()
	frames, reqs := c.seq, c.reqs
	c.sendMu.Unlock()
	return Stats{
		Frames:          frames,
		Requests:        reqs,
		AckedFrames:     c.ackedFrames.Load(),
		AckedRequests:   c.ackedReqs.Load(),
		DroppedFrames:   c.dropFrames.Load(),
		DroppedRequests: c.dropReqs.Load(),
	}
}

// Close flushes, half-closes the write side, waits for the server to
// ack every in-flight frame and drain its queue (the ack stream ends
// when the server finishes the connection), and closes the socket. The
// returned Stats cover the whole connection; the error reports
// protocol, transport and sink failures, not overload drops — those
// are in the Stats. Over TCP, nil means every acked frame was ingested.
func (c *Client) Close() (Stats, error) {
	c.sendMu.Lock()
	flushErr := c.bw.Flush()
	c.sendMu.Unlock()
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := c.conn.(closeWriter); ok {
		cw.CloseWrite()
	} else {
		// No half-close (e.g. an in-memory pipe): the server sees EOF
		// only on full close; drop the remaining acks.
		c.conn.Close()
	}
	c.ackWg.Wait()
	c.conn.Close()
	st := c.Stats()
	if flushErr != nil {
		return st, flushErr
	}
	if ep := c.ackErr.Load(); ep != nil {
		return st, *ep
	}
	return st, nil
}
