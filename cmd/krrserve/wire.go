package main

import (
	"net"

	"krr/internal/trace"
	"krr/internal/wire"
)

// fleetSink bridges the wire data plane to the fleet registry: one
// accepted frame becomes one Registry.IngestBatch call, with the same
// server-side accounting as an HTTP body. Tenants are auto-created
// exactly like the HTTP ingest path.
type fleetSink struct {
	s *server
}

// IngestBatch implements wire.Sink.
func (fs fleetSink) IngestBatch(tenant string, reqs []trace.Request) error {
	_, err := fs.s.ingest(func() (uint64, error) {
		if err := fs.s.reg.IngestBatch(tenant, reqs); err != nil {
			return 0, err
		}
		return uint64(len(reqs)), nil
	})
	return err
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
