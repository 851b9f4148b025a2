package main

import (
	"errors"
	"net"

	"krr/internal/trace"
	"krr/internal/wire"
)

// errFinalized rejects wire ingest after shutdown began.
var errFinalized = errors.New("server is finalized")

// fleetSink bridges the wire data plane to the fleet registry: one
// accepted frame becomes one batched ingest into the tenant's model,
// going through the model's BatchProcessor fast path. Tenants are
// auto-created exactly like the HTTP ingest path.
type fleetSink struct {
	s *server
}

// IngestBatch implements wire.Sink.
func (fs fleetSink) IngestBatch(tenant string, reqs []trace.Request) error {
	if fs.s.final.Load() {
		return errFinalized
	}
	if err := fs.s.reg.IngestBatch(tenant, reqs); err != nil {
		fs.s.ingestErrs.Inc()
		return err
	}
	fs.s.ingests.Add(uint64(len(reqs)))
	return nil
}

// serveWire serves the binary ingest plane on ln and registers its
// metrics under wire_ in the server's exposition set. Accept-loop
// failures are reported on errc like the HTTP listener's.
func (s *server) serveWire(ln net.Listener, queueDepth int, errc chan<- error) (*wire.Server, error) {
	wsrv, err := wire.NewServer(wire.Config{Sink: fleetSink{s: s}, QueueDepth: queueDepth})
	if err != nil {
		return nil, err
	}
	wsrv.MetricsInto(s.set, "wire_")
	go func() {
		if err := wsrv.Serve(ln); err != nil {
			errc <- err
		}
	}()
	return wsrv, nil
}
