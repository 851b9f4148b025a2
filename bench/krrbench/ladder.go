package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"krr/internal/aet"
	"krr/internal/core"
	"krr/internal/fleet"
	"krr/internal/model"
	"krr/internal/telemetry"
	"krr/internal/trace"
	"krr/internal/wire"
)

// Ladder sample sizes.
const (
	ladderSnapshots   = 200 // fleet snapshots timed under concurrent ingest
	ladderModelSnaps  = 5   // idle model snapshots
	ladderDecodeLoops = 4   // passes over the encoded frame buffer
	ladderDecodeFrams = 64  // frames in that buffer
	ladderSegments    = 16  // in-process wire segments
)

// ladder measures each layer in-process on the workload's own
// pregenerated stream, bottom-up — kernel, model, fleet, wire — through
// the layers' stable entry points only. Every rung warms on the
// set-up prefix untimed and times the rest of the stream, so a layer's
// cost is read as its number minus the rung below: model.req_ns minus
// the kernel is the stream wrapper, fleet.ingest_batch_req_ns minus
// model.req_ns is lock + Ensure + footprint refresh, and so on.
func ladder(wl *workload, tr *tracer, out map[string]float64) error {
	t := wl.tenants[0]
	warm, rest := t.stream[:t.warm], t.stream[t.warm:]
	root := tr.begin("ladder", 0)
	defer tr.end(root)
	perReq := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(rest)) }

	// L0 kernels. Both run on every workload's stream; each should move
	// only the workloads whose model runs it.
	id := tr.begin("ladder.core", root)
	bs := core.NewBucketStack(core.KPrimeFor(model.DefaultK), core.DefaultBucketRatio, 1)
	reference := func(reqs []trace.Request) {
		for _, q := range reqs {
			if q.Op == trace.OpDelete {
				bs.Delete(q.Key)
				continue
			}
			bs.Reference(q.Key, q.Size)
		}
	}
	reference(warm)
	moves, updates := bs.Moves(), bs.Updates()
	out["core.ref_ns"] = perReq(timeIt(func() { reference(rest) }))
	out["core.moves_per_ref"] = float64(bs.Moves()-moves) / float64(bs.Updates()-updates)
	tr.end(id)

	id = tr.begin("ladder.aet", root)
	mon := aet.New(0)
	for _, q := range warm {
		mon.Process(q)
	}
	out["aet.ref_ns"] = perReq(timeIt(func() {
		for _, q := range rest {
			mon.Process(q)
		}
	}))
	tr.end(id)

	// L1 model: the registry model behind the stream wrapper, fed in
	// wire-frame batches.
	id = tr.begin("ladder.model", root)
	m, err := model.New(t.model.name, t.model.opts)
	if err != nil {
		return err
	}
	if err := processFrames(m, warm); err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d := timeIt(func() { err = processFrames(m, rest) })
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	out["model.req_ns"] = perReq(d)
	out["model.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(rest))
	var snaps samples
	for i := 0; i < ladderModelSnaps; i++ {
		snaps.add(timeIt(func() { m.Snapshot() }))
	}
	out["model.snapshot_ms"] = snaps.ms(0.5)
	out["model.footprint_mb"] = float64(model.FootprintOf(m)) / 1e6
	tr.end(id)

	// L3 fleet: every tenant of the workload, preloaded as in set-up.
	id = tr.begin("ladder.fleet", root)
	reg, err := newRegistry(wl)
	if err != nil {
		return err
	}
	d = timeIt(func() { err = ingestFrames(reg, t.id, rest) })
	if err != nil {
		return err
	}
	out["fleet.ingest_batch_req_ns"] = perReq(d)

	readerReg := fleet.NewRegistry(fleet.Config{})
	if _, err := readerReg.Create(t.id, fleet.Spec{Model: t.model.name, Options: t.model.opts}); err != nil {
		return err
	}
	if err := ingestBodies(readerReg, t.id, warm); err != nil {
		return err
	}
	d = timeIt(func() { err = ingestBodies(readerReg, t.id, rest) })
	if err != nil {
		return err
	}
	out["fleet.ingest_reader_req_ns"] = perReq(d)

	p50, p99, err := snapshotUnderIngest(reg, t.id, rest)
	if err != nil {
		return err
	}
	out["fleet.snapshot_ms_p50"], out["fleet.snapshot_ms_p99"] = p50, p99
	var allocs samples
	for i := 0; i < probeAllocs; i++ {
		var aerr error
		allocs.add(timeIt(func() { _, aerr = reg.Allocate(allocBudget, "objects") }))
		if aerr != nil {
			return aerr
		}
	}
	out["fleet.allocate_ms"] = allocs.ms(0.5)
	tr.end(id)

	// L4 wire: the codec on in-memory frames, then an in-process server
	// feeding the warmed registry.
	id = tr.begin("ladder.wire", root)
	var enc []byte
	frames := 0
	d = timeIt(func() {
		for off := 0; off+frameLen <= len(rest); off += frameLen {
			enc = wire.AppendFrame(enc[:0], rest[off:off+frameLen])
			frames++
		}
	})
	out["wire.encode_frame_us"] = float64(d.Nanoseconds()) / 1e3 / float64(frames)
	if out["wire.decode_frame_us"], err = decodeCost(rest); err != nil {
		return err
	}
	if err := wireLadder(reg, t, rest, out); err != nil {
		return err
	}
	tr.end(id)
	return nil
}

func timeIt(f func()) time.Duration {
	s := time.Now()
	f()
	return time.Since(s)
}

// processFrames feeds reqs to m in wire-frame batches.
func processFrames(m model.Model, reqs []trace.Request) error {
	for off := 0; off < len(reqs); off += frameLen {
		if err := model.ProcessBatch(m, reqs[off:min(off+frameLen, len(reqs))]); err != nil {
			return err
		}
	}
	return nil
}

// ingestFrames feeds reqs to a tenant through Registry.IngestBatch, the
// wire plane's sink.
func ingestFrames(reg *fleet.Registry, id string, reqs []trace.Request) error {
	for off := 0; off < len(reqs); off += frameLen {
		if err := reg.IngestBatch(id, reqs[off:min(off+frameLen, len(reqs))]); err != nil {
			return err
		}
	}
	return nil
}

// ingestBodies feeds reqs through Registry.Ingest in POST-body-sized
// readers, the HTTP route's call.
func ingestBodies(reg *fleet.Registry, id string, reqs []trace.Request) error {
	for off := 0; off < len(reqs); off += bodyLines {
		tr := trace.Trace{Reqs: reqs[off:min(off+bodyLines, len(reqs))]}
		if _, err := reg.Ingest(id, tr.Reader()); err != nil {
			return err
		}
	}
	return nil
}

// newRegistry builds a fleet holding every tenant of wl with its set-up
// prefix ingested.
func newRegistry(wl *workload) (*fleet.Registry, error) {
	reg := fleet.NewRegistry(fleet.Config{})
	for _, t := range wl.tenants {
		if _, err := reg.Create(t.id, fleet.Spec{Model: t.model.name, Options: t.model.opts}); err != nil {
			return nil, err
		}
		if err := ingestFrames(reg, t.id, t.stream[:t.warm]); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// snapshotUnderIngest times Registry.Snapshot while another goroutine
// ingests frames into the same tenant, so the numbers include waiting
// for the tenant lock.
func snapshotUnderIngest(reg *fleet.Registry, id string, reqs []trace.Request) (p50, p99 float64, err error) {
	stop := make(chan struct{})
	ingestErr := make(chan error, 1)
	go func() {
		for off := 0; ; off = (off + frameLen) % (len(reqs) - len(reqs)%frameLen) {
			select {
			case <-stop:
				ingestErr <- nil
				return
			default:
			}
			if err := reg.IngestBatch(id, reqs[off:off+frameLen]); err != nil {
				ingestErr <- err
				return
			}
		}
	}()
	var s samples
	for i := 0; i < ladderSnapshots && err == nil; i++ {
		s.add(timeIt(func() { _, err = reg.Snapshot(id) }))
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if ierr := <-ingestErr; ierr != nil {
		err = ierr
	}
	return s.ms(0.50), s.ms(0.99), err
}

// decodeCost times NewDecoder → NextCount/ReadBatch over in-memory
// frames and returns microseconds per frame.
func decodeCost(reqs []trace.Request) (float64, error) {
	var buf []byte
	for f := 0; f < ladderDecodeFrams; f++ {
		off := (f * frameLen) % (len(reqs) - frameLen)
		buf = wire.AppendFrame(buf, reqs[off:off+frameLen])
	}
	var pool wire.BatchPool
	var err error
	d := timeIt(func() {
		for i := 0; i < ladderDecodeLoops && err == nil; i++ {
			dec := wire.NewDecoder(bufio.NewReaderSize(bytes.NewReader(buf), 1<<18), &pool)
			for {
				n, nerr := dec.NextCount()
				if errors.Is(nerr, io.EOF) {
					break
				}
				var b []trace.Request
				if b, err = dec.ReadBatch(n); err != nil {
					return
				}
				dec.Recycle(b)
			}
		}
	})
	return float64(d.Nanoseconds()) / 1e3 / float64(ladderDecodeFrams*ladderDecodeLoops), err
}

// wireLadder runs closed-loop segments through an in-process
// wire.Server whose sink times each Registry.IngestBatch call. Frames
// reach the sink in send order (one connection at a time, one worker
// per connection), so the i-th sink call is the i-th frame sent:
// transit is send → sink entry, sink is the IngestBatch call itself.
func wireLadder(reg *fleet.Registry, t *tenant, reqs []trace.Request, out map[string]float64) error {
	var (
		mu              sync.Mutex
		sinkIn, sinkOut []time.Time
	)
	sink := wire.SinkFunc(func(tenant string, batch []trace.Request) error {
		in := time.Now()
		err := reg.IngestBatch(tenant, batch)
		done := time.Now()
		mu.Lock()
		sinkIn, sinkOut = append(sinkIn, in), append(sinkOut, done)
		mu.Unlock()
		return err
	})
	srv, err := wire.NewServer(wire.Config{Sink: sink, QueueDepth: 64})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Fine buckets: the client reports ack round trips only as a
	// histogram, so keep its interpolation error near 2.5%.
	acks := telemetry.NewHistogram(telemetry.ExpBuckets(1e-7, 1.05, 420))
	var sendAt []time.Time
	var segs samples
	var dropped uint64
	span := len(reqs) - len(reqs)%segReqs
	for s := 0; s < ladderSegments && err == nil; s++ {
		off := (s * segReqs) % span
		s0 := time.Now()
		var c *wire.Client
		if c, err = wire.Dial(ln.Addr().String(), t.id); err != nil {
			break
		}
		c.Latency = acks
		for f := 0; f < segFrames && err == nil; f++ {
			sendAt = append(sendAt, time.Now())
			err = c.SendBatch(reqs[off+f*frameLen : off+(f+1)*frameLen])
		}
		st, cerr := c.Close()
		segs.add(time.Since(s0))
		dropped += st.DroppedFrames
		err = errors.Join(err, cerr)
	}
	srv.Close()
	err = errors.Join(err, <-serveErr)
	if err != nil {
		return err
	}

	mu.Lock()
	defer mu.Unlock()
	var transit, sinkT samples
	for i := range sinkIn {
		if i < len(sendAt) {
			transit.add(sinkIn[i].Sub(sendAt[i]))
		}
		sinkT.add(sinkOut[i].Sub(sinkIn[i]))
	}
	out["wire.transit_us_p50"], out["wire.transit_us_p99"] = transit.us(0.50), transit.us(0.99)
	out["wire.sink_us_p50"], out["wire.sink_us_p99"] = sinkT.us(0.50), sinkT.us(0.99)
	out["wire.ack_rtt_us_p50"], out["wire.ack_rtt_us_p99"] = acks.Quantile(0.50)*1e6, acks.Quantile(0.99)*1e6
	out["wire.segment_ms_p50"], out["wire.segment_ms_p99"] = segs.ms(0.50), segs.ms(0.99)
	out["wire.dropped_frames"] = float64(dropped)
	return nil
}
