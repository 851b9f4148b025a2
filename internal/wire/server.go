package wire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"krr/internal/telemetry"
	"krr/internal/trace"
)

// Sink consumes decoded frames. IngestBatch is called once per
// accepted frame from the owning connection's worker goroutine, in
// frame order per connection; reqs is only valid for the duration of
// the call (the buffer is recycled afterwards), so implementations
// must not retain it. Distinct connections call concurrently —
// fleet-style sinks serialize per tenant internally.
type Sink interface {
	IngestBatch(tenant string, reqs []trace.Request) error
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(tenant string, reqs []trace.Request) error

// IngestBatch calls the function.
func (f SinkFunc) IngestBatch(tenant string, reqs []trace.Request) error {
	return f(tenant, reqs)
}

// DefaultQueueDepth is the per-connection bounded queue, in frames.
// With 4096-record frames that is 1 MiB of queued requests per
// connection before shedding starts.
const DefaultQueueDepth = 16

// Config shapes a Server.
type Config struct {
	// Sink receives accepted frames. Required.
	Sink Sink
	// QueueDepth bounds each connection's ingest queue in frames;
	// frames arriving at a full queue are discarded and acked
	// StatusOverloaded. 0 means DefaultQueueDepth.
	QueueDepth int
}

// connReadBuf and connWriteBuf size each connection's read buffer and
// ack buffer.
const (
	connReadBuf  = 1 << 18
	connWriteBuf = 1 << 12
)

// Server terminates wire-protocol connections: per connection, a
// reader goroutine decodes frames into pooled batches and a worker
// goroutine feeds them to the sink, with a bounded queue between the
// two. The reader never blocks on a slow sink — it sheds load frame by
// frame once the queue is full — so per-connection memory is capped at
// QueueDepth × frame size plus the 256 KiB read buffer and the 4 KiB
// ack buffer (1.25 MiB at the default 16 × 64 KiB frames), no matter
// how far the sink falls behind. Batches, read buffers and ack buffers
// are all recycled across connections, so a steady stream of short
// connections allocates none of them.
type Server struct {
	cfg     Config
	pool    BatchPool
	readers sync.Pool // *bufio.Reader, connReadBuf bytes
	writers sync.Pool // *bufio.Writer, connWriteBuf bytes

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	connsTotal telemetry.Counter
	active     telemetry.Gauge
	frames     telemetry.Counter
	requests   telemetry.Counter
	dropFrames telemetry.Counter
	dropReqs   telemetry.Counter
	badFrames  telemetry.Counter
	sinkErrs   telemetry.Counter
	discFrames telemetry.Counter
	discReqs   telemetry.Counter
	latency    *telemetry.Histogram
}

// NewServer builds a server over a sink.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Sink == nil {
		return nil, errors.New("wire: config needs a Sink")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	return &Server{
		cfg:     cfg,
		readers: sync.Pool{New: func() any { return bufio.NewReaderSize(nil, connReadBuf) }},
		writers: sync.Pool{New: func() any { return bufio.NewWriterSize(nil, connWriteBuf) }},
		conns:   make(map[net.Conn]struct{}),
		// 1µs .. ~1s exponential ladder: frame-granularity sink latency.
		latency: telemetry.NewHistogram(telemetry.ExpBuckets(1e-6, 2, 21)),
	}, nil
}

// Serve accepts connections on ln until Close. It returns nil after
// Close, or the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
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
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsTotal.Inc()
		s.active.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes every live connection and waits for
// their workers to drain. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// forget removes a finished connection.
func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.active.Add(-1)
	s.wg.Done()
}

// serveConn runs one connection: header, then the frame loop. The
// reader owns the ack writer (single writer, acks stay in frame
// order); the worker owns sink calls and batch recycling. Acks are
// admission acks, so a sink failure is reported after the drain as one
// trailing StatusBad. Its read and ack buffers come from the server's
// pools and go back, detached from conn, once the last status byte is
// flushed.
func (s *Server) serveConn(conn net.Conn) {
	defer s.forget(conn)
	defer conn.Close()

	br := s.readers.Get().(*bufio.Reader)
	bw := s.writers.Get().(*bufio.Writer)
	br.Reset(conn)
	bw.Reset(conn)
	defer func() {
		br.Reset(nil)
		bw.Reset(nil)
		s.readers.Put(br)
		s.writers.Put(bw)
	}()
	tenant, err := ReadHeader(br)
	if err != nil {
		s.badFrames.Inc()
		bw.WriteByte(StatusBad)
		bw.Flush()
		return
	}

	queue := make(chan []trace.Request, s.cfg.QueueDepth)
	var sinkFailed atomic.Bool
	var workerWg sync.WaitGroup
	workerWg.Add(1)
	go func() {
		defer workerWg.Done()
		for batch := range queue {
			if !sinkFailed.Load() {
				t0 := time.Now()
				if err := s.cfg.Sink.IngestBatch(tenant, batch); err != nil {
					s.sinkErrs.Inc()
					sinkFailed.Store(true)
				}
				s.latency.Observe(time.Since(t0).Seconds())
			}
			if sinkFailed.Load() {
				// Acked but not ingested: the failing frame and every
				// frame queued behind it.
				s.discFrames.Inc()
				s.discReqs.Add(uint64(len(batch)))
			}
			s.pool.Put(batch)
		}
	}()

	dec := NewDecoder(br, &s.pool)
	for {
		n, err := dec.NextCount()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			s.badFrames.Inc()
			bw.WriteByte(StatusBad)
			break
		}
		if sinkFailed.Load() {
			s.badFrames.Inc()
			bw.WriteByte(StatusBad)
			break
		}
		// Admission control. The reader is this queue's only sender, so
		// the occupancy check cannot race another producer: a full queue
		// here is still full (or fuller) at send time.
		if len(queue) == cap(queue) {
			if err := dec.Discard(n); err != nil {
				s.badFrames.Inc()
				bw.WriteByte(StatusBad)
				break
			}
			s.dropFrames.Inc()
			s.dropReqs.Add(uint64(n))
			bw.WriteByte(StatusOverloaded)
			if err := bw.Flush(); err != nil {
				break
			}
			continue
		}
		batch, err := dec.ReadBatch(n)
		if err != nil {
			s.badFrames.Inc()
			bw.WriteByte(StatusBad)
			break
		}
		queue <- batch
		s.frames.Inc()
		s.requests.Add(uint64(n))
		bw.WriteByte(StatusOK)
		if err := bw.Flush(); err != nil {
			break
		}
	}
	bw.Flush()
	close(queue)
	workerWg.Wait()
	if sinkFailed.Load() {
		bw.WriteByte(StatusBad)
		bw.Flush()
	}
}

// Latency returns the per-frame sink latency histogram (seconds).
func (s *Server) Latency() *telemetry.Histogram { return s.latency }

// Dropped returns the total requests shed by overloaded queues.
func (s *Server) Dropped() uint64 { return s.dropReqs.Load() }

// Requests returns the total requests accepted into ingest queues.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// MetricsInto registers the server's metrics under prefix: connection
// and frame counters, drop counters (the overload signal), and the
// ingest latency histogram with p50/p99 gauges.
func (s *Server) MetricsInto(set *telemetry.Set, prefix string) {
	set.CounterFunc(prefix+"connections_total", "wire connections accepted", s.connsTotal.Load)
	set.GaugeFunc(prefix+"connections_active", "wire connections currently open", func() float64 {
		return float64(s.active.Load())
	})
	set.CounterFunc(prefix+"frames_total", "frames accepted into ingest queues", s.frames.Load)
	set.CounterFunc(prefix+"requests_total", "requests accepted into ingest queues", s.requests.Load)
	set.CounterFunc(prefix+"dropped_frames_total", "frames shed by full ingest queues", s.dropFrames.Load)
	set.CounterFunc(prefix+"dropped_requests_total", "requests shed by full ingest queues", s.dropReqs.Load)
	set.CounterFunc(prefix+"bad_frames_total", "malformed frames or headers", s.badFrames.Load)
	set.CounterFunc(prefix+"sink_errors_total", "frames rejected by the ingest sink", s.sinkErrs.Load)
	set.CounterFunc(prefix+"sink_discarded_frames_total", "admitted frames not ingested after a sink error (the failing frame included)", s.discFrames.Load)
	set.CounterFunc(prefix+"sink_discarded_requests_total", "requests in admitted frames not ingested after a sink error", s.discReqs.Load)
	set.RegisterHistogram(prefix+"ingest_latency_seconds", "per-frame sink ingest latency", s.latency)
	set.GaugeFunc(prefix+"ingest_latency_p50_seconds", "median per-frame sink ingest latency", func() float64 {
		return s.latency.Quantile(0.50)
	})
	set.GaugeFunc(prefix+"ingest_latency_p99_seconds", "p99 per-frame sink ingest latency", func() float64 {
		return s.latency.Quantile(0.99)
	})
}
