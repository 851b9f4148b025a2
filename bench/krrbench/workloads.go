package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"krr/internal/hashing"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	presets "krr/internal/workload"
)

// Traffic shape shared by every workload.
const (
	frameLen    = 4096 // requests per wire frame
	segFrames   = 32   // frames per closed-loop wire segment
	segReqs     = frameLen * segFrames
	wireRing    = 1 << 21         // pregenerated requests per wire tenant
	wireWarm    = 1 << 20         // of which set-up ingests this prefix
	bodyLines   = 10_000          // NDJSON lines per POST body
	ndjsonRing  = 100 * bodyLines // pregenerated requests for the HTTP tenant
	ndjsonWarm  = 50 * bodyLines  // of which set-up ingests this prefix
	pollEvery   = 20 * time.Millisecond
	streamRate  = 3e6 // stream-aet open-loop wire rate, req/s
	mixedRate   = 1e6 // mixed-query open-loop wire rate, req/s
	mixedHTTPHz = 80  // mixed-query HTTP schedule: queries and polls alternate
)

// modelSpec is a tenant's model. The same value builds the POST
// /tenants body and the offline reference replay, so the two cannot
// drift apart.
type modelSpec struct {
	name string
	opts model.Options
}

var (
	bucketModel = modelSpec{"krr-bucket", model.Options{K: 5, Seed: 1, BucketRatio: 2}}
	aetModel    = modelSpec{"aet", model.Options{}}
)

// createBody renders the POST /tenants request for tenant id.
func (m modelSpec) createBody(id string) []byte {
	b, _ := json.Marshal(map[string]any{
		"id": id, "model": m.name, "k": m.opts.K, "seed": m.opts.Seed, "bucket_ratio": m.opts.BucketRatio,
	})
	return b
}

// tenant is one tenant's pregenerated traffic.
type tenant struct {
	id     string
	model  modelSpec
	stream []trace.Request // what the model sees, in order
	warm   int             // stream[:warm] is ingested during set-up
	// bodies are stream rendered as NDJSON POST bodies of bodyLines
	// each; only the HTTP-ingest tenant has them.
	bodies [][]byte
	ref    *mrc.Curve // offline replay of stream[:warm]
}

// workload is one named traffic mix. tenants[0] is driven during the
// timed window; any others are preloaded in set-up and stay idle.
type workload struct {
	name    string
	tenants []*tenant
	http    bool // tenants[0] ingests NDJSON over HTTP, not the wire
	drive   func(r *run, w *window) error
}

// workloadNames lists the workloads this bench implements, in
// BENCHMARK.json order.
var workloadNames = []string{"bulk-bucket", "stream-aet", "mixed-query", "http-ndjson"}

// newWorkload pregenerates a workload's traffic from seed and replays
// each tenant's set-up prefix offline. None of this is timed.
func newWorkload(name string, seed uint64) (*workload, error) {
	wire := func(id string, m modelSpec, preset string, salt uint64, n, warm int) (*tenant, error) {
		s, err := generate(preset, seed+salt*7919, n)
		return &tenant{id: id, model: m, stream: s, warm: warm}, err
	}
	var (
		wl  = &workload{name: name}
		t   *tenant
		err error
	)
	switch name {
	case "bulk-bucket":
		t, err = wire("web", bucketModel, "msr-web", 0, wireRing, wireWarm)
		wl.tenants, wl.drive = []*tenant{t}, driveSegments
	case "stream-aet":
		t, err = wire("zipf", aetModel, "zipf", 0, wireRing, wireWarm)
		wl.tenants = []*tenant{t}
		wl.drive = func(r *run, w *window) error { return driveOpenLoop(r, w, streamRate, 0) }
	case "mixed-query":
		var idle *tenant
		if t, err = wire("web", bucketModel, "msr-web", 0, wireRing, wireWarm); err == nil {
			idle, err = wire("tw", bucketModel, "tw-34.1", 1, wireWarm, wireWarm)
		}
		wl.tenants = []*tenant{t, idle}
		wl.drive = func(r *run, w *window) error { return driveOpenLoop(r, w, mixedRate, mixedHTTPHz) }
	case "http-ndjson":
		t, err = ndjsonTenant("nd", seed)
		wl.tenants, wl.http, wl.drive = []*tenant{t}, true, drivePosts
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	for _, t := range wl.tenants {
		if t.ref, err = replay(t.model, t.stream[:t.warm]); err != nil {
			return nil, err
		}
	}
	return wl, nil
}

// generate draws n requests from a preset at scale 1.0 with fixed
// 200-byte objects.
func generate(preset string, seed uint64, n int) ([]trace.Request, error) {
	p, ok := presets.ByName(preset)
	if !ok {
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
	r := p.New(1.0, seed, false)
	out := make([]trace.Request, n)
	for i := range out {
		req, err := r.Next()
		if err != nil {
			return nil, fmt.Errorf("preset %s: %w", preset, err)
		}
		out[i] = req
	}
	return out, nil
}

// ndjsonTenant builds the HTTP tenant: tw-52.7 traffic (25% sets,
// churn) with string keys "user:<n>", as canonical NDJSON bodies. The
// stream holds the keys hashed the way krrserve hashes them.
func ndjsonTenant(id string, seed uint64) (*tenant, error) {
	raw, err := generate("tw-52.7", seed, ndjsonRing)
	if err != nil {
		return nil, err
	}
	t := &tenant{id: id, model: aetModel, stream: make([]trace.Request, len(raw)), warm: ndjsonWarm}
	var key []byte
	for i, req := range raw {
		key = strconv.AppendUint(append(key[:0], "user:"...), req.Key, 10)
		t.stream[i] = trace.Request{Key: hashing.String(string(key)), Size: req.Size, Op: req.Op}
	}
	for off := 0; off < len(raw); off += bodyLines {
		t.bodies = append(t.bodies, renderNDJSON(raw[off:off+bodyLines], true))
	}
	return t, nil
}

// renderNDJSON writes one canonical NDJSON line per request, with the
// key as "user:<n>" or as a bare integer.
func renderNDJSON(reqs []trace.Request, stringKeys bool) []byte {
	var b []byte
	for _, req := range reqs {
		b = append(b, `{"key":`...)
		if stringKeys {
			b = append(b, `"user:`...)
			b = strconv.AppendUint(b, req.Key, 10)
			b = append(b, '"')
		} else {
			b = strconv.AppendUint(b, req.Key, 10)
		}
		b = append(b, `,"size":`...)
		b = strconv.AppendUint(b, uint64(req.Size), 10)
		b = append(b, `,"op":"`...)
		b = append(b, req.Op.String()...)
		b = append(b, "\"}\n"...)
	}
	return b
}

// replay builds the model offline over reqs, in wire-frame batches as
// the server does, and returns its curve.
func replay(m modelSpec, reqs []trace.Request) (*mrc.Curve, error) {
	mod, err := model.New(m.name, m.opts)
	if err != nil {
		return nil, err
	}
	for off := 0; off < len(reqs); off += frameLen {
		if err := model.ProcessBatch(mod, reqs[off:min(off+frameLen, len(reqs))]); err != nil {
			return nil, err
		}
	}
	return mod.Snapshot().Object, nil
}

// sameCurve reports bit-identity: equal breakpoints, interpolation, and
// miss ratios compared as float64 bit patterns.
func sameCurve(a, b *mrc.Curve) bool {
	if a.Interp != b.Interp || len(a.Sizes) != len(b.Sizes) || len(a.Miss) != len(b.Miss) {
		return false
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] || math.Float64bits(a.Miss[i]) != math.Float64bits(b.Miss[i]) {
			return false
		}
	}
	return true
}
