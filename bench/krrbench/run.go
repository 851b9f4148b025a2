package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/wire"
)

// untracedSetups is how many times an untraced run sets up; setup_s is
// the median.
const untracedSetups = 5

// Probe sizes for the traced run's calls into the child process.
const (
	probePosts   = 10
	probeQueries = 20
	probeAllocs  = 5
	allocBudget  = 100_000 // objects, split across the live tenants
)

// mrcSizes are the cache sizes /mrc queries cycle through.
var mrcSizes = []uint64{1_000, 10_000, 50_000, 100_000, 150_000}

// config is one benchmark invocation.
type config struct {
	root      string // checkout root: source tree and BENCHMARK.json
	serverBin string // krrserve built from root
	workload  string
	seed      uint64
	seconds   time.Duration
	traced    bool
}

// result is one run's record. Every run fills E2E and the window.*
// per-layer rows; a traced run fills the rest of Layer and prints it
// instead of E2E.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	E2E       map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer"`
	Info      map[string]float64 `json:"info"`
	Host      hostInfo           `json:"host"`

	tr *tracer
}

// run is the state of one invocation against one krrserve child at a
// time.
type run struct {
	cfg config
	wl  *workload
	tr  *tracer // nil when untraced
	srv *server
	res *result

	// Requests sent to and shed for each tenant on the current server:
	// the conservation check's expectation.
	sent, dropped map[string]uint64
	// Window samples: the workload's user-facing latency and how late
	// the generator issued due work.
	lat, late samples
}

// fail records a failed operation or check.
func (r *run) fail(format string, args ...any) {
	r.res.Failed++
	r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
}

// execute performs one run: set-up (setups times untraced, reporting
// the median, once traced), the timed window, the correctness checks, and
// when traced the probes of the child and the in-process layer ladder.
func execute(cfg config) (*result, error) {
	r := &run{cfg: cfg, res: &result{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced, Seconds: cfg.seconds.Seconds(),
		E2E: map[string]float64{}, Layer: map[string]float64{}, Info: map[string]float64{},
		Host: describeHost(cfg.root),
	}}
	if cfg.traced {
		r.tr = newTracer()
		r.res.tr = r.tr
	}
	wl, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	r.wl = wl
	defer func() {
		if r.srv != nil {
			r.srv.stop()
		}
	}()

	setups := untracedSetups
	if cfg.traced {
		setups = 1
	}
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if r.srv != nil {
			r.srv.stop()
		}
		d, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		for _, t := range wl.tenants {
			r.checkCurve(t, t.ref, "set-up curve of "+t.id)
		}
	}
	_, r.res.E2E["setup_s"], _ = quartiles(setupTimes)
	r.res.Info["setups"] = float64(setups)

	w := &window{r: r, span: r.tr.begin("window", 0)}
	err = wl.drive(r, w)
	r.tr.end(w.span)
	if err != nil {
		return nil, fmt.Errorf("timed window: %w", err)
	}
	if err := r.checkAfter(); err != nil {
		return nil, err
	}
	peak, err := memKB(r.srv.pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		if err := r.probe(); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	if r.res.Host.ServerGOMAXPROCS, err = cpusAllowed(r.srv.pid); err != nil {
		return nil, err
	}
	r.srv.stop()
	r.srv = nil

	if err := r.windowMetrics(w, peak); err != nil {
		return nil, err
	}
	if cfg.traced {
		if err := ladder(wl, r.tr, r.res.Layer); err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// setup spawns krrserve and brings it to the window's starting state:
// healthy, tenants created, idle tenants preloaded and the driven
// tenant warmed. The returned time is the workload's setup_s sample.
func (r *run) setup() (time.Duration, error) {
	t0 := time.Now()
	id := r.tr.begin("setup", 0)
	defer r.tr.end(id)
	srv, err := startServer(r.cfg.serverBin)
	if err != nil {
		return 0, err
	}
	r.srv = srv
	r.sent, r.dropped = map[string]uint64{}, map[string]uint64{}
	for _, t := range r.wl.tenants {
		r.res.Attempted++
		if _, err := srv.do(http.MethodPost, "/tenants", "application/json", t.model.createBody(t.id)); err != nil {
			return 0, err
		}
	}
	for i, t := range r.wl.tenants {
		if i == 0 && r.wl.http {
			for _, body := range t.bodies[:t.warm/bodyLines] {
				if err := r.post(t, body, id); err != nil {
					return 0, err
				}
			}
			continue
		}
		for off := 0; off < t.warm; off += segReqs {
			if err := r.segment(t, t.stream[off:min(off+segReqs, t.warm)], id); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0), nil
}

// segment sends reqs to t over one fresh wire connection in frames and
// returns once the server has drained the connection's queue
// (wire.Client.Close waits for the ack stream to end).
func (r *run) segment(t *tenant, reqs []trace.Request, parent int) error {
	c, err := wire.Dial(r.srv.wireAddr, t.id)
	if err != nil {
		return err
	}
	var sendErr error
	for off := 0; off < len(reqs) && sendErr == nil; off += frameLen {
		id := r.tr.begin("frame", parent)
		sendErr = c.SendBatch(reqs[off:min(off+frameLen, len(reqs))])
		r.tr.end(id)
	}
	st, err := c.Close()
	r.account(t, st)
	return errors.Join(sendErr, err)
}

// account folds one wire connection's totals into the run: every frame
// is an attempt, every shed frame a failure.
func (r *run) account(t *tenant, st wire.Stats) {
	r.res.Attempted += st.Frames
	r.res.Failed += st.DroppedFrames
	if st.DroppedFrames > 0 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf("server shed %d frames for %s", st.DroppedFrames, t.id))
	}
	r.sent[t.id] += st.Requests
	r.dropped[t.id] += st.DroppedRequests
}

// post sends one NDJSON body of bodyLines lines and checks that the
// server reports ingesting every line.
func (r *run) post(t *tenant, body []byte, parent int) error {
	id := r.tr.begin("post", parent)
	out, err := r.srv.do(http.MethodPost, "/tenants/"+t.id+"/ingest", "application/x-ndjson", body)
	r.tr.end(id)
	r.res.Attempted++
	r.sent[t.id] += bodyLines
	if err != nil {
		return err
	}
	var resp struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return fmt.Errorf("ingest response %q: %w", out, err)
	}
	if resp.Ingested != bodyLines {
		return fmt.Errorf("server ingested %d of %d lines", resp.Ingested, bodyLines)
	}
	return nil
}

// checkCurve fetches a tenant's full live curve, which must parse and
// validate (mrc.ReadJSON) and, when want is given, be bit-identical to
// it.
func (r *run) checkCurve(t *tenant, want *mrc.Curve, what string) {
	r.res.Attempted++
	body, err := r.srv.get("/tenants/" + t.id + "/curve")
	if err != nil {
		r.fail("%s: %v", what, err)
		return
	}
	got, err := mrc.ReadJSON(bytes.NewReader(body))
	switch {
	case err != nil:
		r.fail("%s: %v", what, err)
	case got.Len() < 2:
		r.fail("%s: empty curve", what)
	case want != nil && !sameCurve(got, want):
		r.fail("%s: not bit-identical to the offline replay", what)
	}
}

// checkAfter runs the post-window checks: request conservation per
// tenant (tenant_requests_total = sent − shed), no ingest errors, and a
// final curve that parses and validates.
func (r *run) checkAfter() error {
	m, err := r.srv.scrape()
	if err != nil {
		return err
	}
	for _, t := range r.wl.tenants {
		r.res.Attempted++
		got, err := counter(m, tenantCounter("tenant_requests_total", t.id))
		if err != nil {
			return err
		}
		if want := r.sent[t.id] - r.dropped[t.id]; got != want {
			r.fail("conservation for %s: server counted %d requests, sent %d minus shed %d", t.id, got, r.sent[t.id], r.dropped[t.id])
		}
	}
	r.res.Attempted++
	if n, err := counter(m, "krrserve_ingest_errors_total"); err != nil {
		return err
	} else if n != 0 {
		r.fail("server rejected %d ingest bodies or frames", n)
	}
	r.checkCurve(r.wl.tenants[0], nil, "final curve of "+r.wl.tenants[0].id)
	return nil
}

// sliceLen is the window's sampling interval. A shared host's speed
// swings by tens of percent from one second to the next as other
// tenants load the shared cores and caches, and that contention only
// ever adds time. Rates are therefore reported from the best decile of
// slices — what the code costs when the host is least contended —
// which spreads least from run to run.
const sliceLen = time.Second

// counters is one reading of the server and generator at a slice
// boundary.
type counters struct {
	at        time.Time
	processed uint64        // requests the server's models have accepted
	cpu       time.Duration // server on-CPU time, all threads
	ctxsw     uint64        // server context switches, all threads
	rss       uint64        // server resident bytes
	genCPU    time.Duration // bench process CPU
}

// window brackets the timed part of a drive and cuts it into slices.
// One goroutine marks at a time: the drive loop, or in an open loop the
// HTTP schedule, whose polls read the accepted count anyway.
type window struct {
	r     *run
	span  int
	marks []counters
}

// mark records a boundary at which the server had accepted processed
// requests in total.
func (w *window) mark(processed uint64) error {
	c := counters{at: time.Now(), processed: processed, genCPU: selfCPU()}
	var err error
	if c.cpu, c.ctxsw, err = threadStats(w.r.srv.pid); err != nil {
		return err
	}
	c.rss, err = memKB(w.r.srv.pid, "VmRSS")
	w.marks = append(w.marks, c)
	return err
}

// markDue marks once a slice has passed since the last mark.
func (w *window) markDue(processed uint64) error {
	if time.Since(w.last().at) < sliceLen {
		return nil
	}
	return w.mark(processed)
}

// scrapeMark marks with the server's own accepted-request counter; the
// window opens and closes this way.
func (w *window) scrapeMark() error {
	m, err := w.r.srv.scrape()
	if err != nil {
		return err
	}
	n, err := counter(m, "krrserve_ingest_requests_total")
	if err != nil {
		return err
	}
	return w.mark(n)
}

func (w *window) first() counters { return w.marks[0] }
func (w *window) last() counters  { return w.marks[len(w.marks)-1] }

// windowMetrics turns the window's marks into rss_mb and the window.*
// rows (and, traced, the process and generator rows). Throughput and
// CPU per request come from slices of at least half a sliceLen;
// resident memory is the median reading while serving.
func (r *run) windowMetrics(w *window, peak uint64) error {
	first, last := w.first(), w.last()
	elapsed := last.at.Sub(first.at)
	processed := last.processed - first.processed
	var rates, cpuPerReq, rss []float64
	for i := 1; i < len(w.marks); i++ {
		a, b := w.marks[i-1], w.marks[i]
		dt, dp := b.at.Sub(a.at), b.processed-a.processed
		if dt < sliceLen/2 || dp == 0 {
			continue
		}
		rates = append(rates, float64(dp)/dt.Seconds()/1e6)
		cpuPerReq = append(cpuPerReq, float64((b.cpu-a.cpu).Nanoseconds())/float64(dp))
	}
	for _, m := range w.marks {
		rss = append(rss, float64(m.rss)/1e6)
	}
	if len(rates) == 0 || len(r.lat) == 0 {
		return errors.New("the window processed no requests")
	}
	cpu := last.cpu - first.cpu
	r.res.E2E["rss_mb"] = quantile(rss, 0.5)
	l := r.res.Layer
	l["window.throughput_mreq_s"] = quantile(rates, 0.9)
	l["window.cpu_ns_per_req"] = quantile(cpuPerReq, 0.1)
	l["window.latency_p50_ms"] = r.lat.ms(0.50)
	l["window.latency_p99_ms"] = r.lat.ms(0.99)
	info := r.res.Info
	info["window_s"] = elapsed.Seconds()
	info["slices"] = float64(len(rates))
	info["processed"] = float64(processed)
	info["latency_samples"] = float64(len(r.lat))
	info["late_samples"] = float64(len(r.late))
	if r.cfg.traced {
		l["server.peak_rss_mb"] = float64(peak) / 1e6
		l["server.cpu_util"] = cpu.Seconds() / elapsed.Seconds()
		l["server.ctxsw_per_kreq"] = float64(last.ctxsw-first.ctxsw) / (float64(processed) / 1e3)
		l["gen.cpu_util"] = (last.genCPU - first.genCPU).Seconds() / elapsed.Seconds()
		l["gen.late_ms_p99"] = r.late.ms(0.99)
	}
	return nil
}

// accepted is what t's model has accepted from this run on the current
// server, by the bench's own count.
func (r *run) accepted(t *tenant) uint64 { return r.sent[t.id] - r.dropped[t.id] }

// driveSegments is bulk-bucket's closed loop: back-to-back wire
// segments, each on a fresh connection, until the window elapses. The
// latency is one segment's send-to-drained time.
func driveSegments(r *run, w *window) error {
	t := r.wl.tenants[0]
	if err := w.scrapeMark(); err != nil {
		return err
	}
	base := w.first().processed - r.accepted(t)
	deadline := w.first().at.Add(r.cfg.seconds)
	next, done := t.warm, time.Now()
	for time.Now().Before(deadline) {
		off := next % len(t.stream)
		next += segReqs
		s0 := time.Now()
		r.late.add(s0.Sub(done)) // closed loop: due when the last one finished
		id := r.tr.begin("segment", w.span)
		err := r.segment(t, t.stream[off:off+segReqs], id)
		r.tr.end(id)
		done = time.Now()
		if err != nil {
			return err
		}
		r.lat.add(done.Sub(s0))
		if err := w.markDue(base + r.accepted(t)); err != nil {
			return err
		}
	}
	return w.scrapeMark()
}

// drivePosts is http-ndjson's closed loop: back-to-back NDJSON POSTs on
// the keep-alive connection. The latency is one POST's round trip.
func drivePosts(r *run, w *window) error {
	t := r.wl.tenants[0]
	if err := w.scrapeMark(); err != nil {
		return err
	}
	base := w.first().processed - r.accepted(t)
	deadline := w.first().at.Add(r.cfg.seconds)
	next, done := t.warm/bodyLines, time.Now()
	for time.Now().Before(deadline) {
		body := t.bodies[next%len(t.bodies)]
		next++
		s0 := time.Now()
		r.late.add(s0.Sub(done))
		err := r.post(t, body, w.span)
		done = time.Now()
		if err != nil {
			r.fail("POST: %v", err)
			continue
		}
		r.lat.add(done.Sub(s0))
		if err := w.markDue(base + r.accepted(t)); err != nil {
			return err
		}
	}
	return w.scrapeMark()
}

// httpSide is the HTTP half of an open-loop window, run on its own
// goroutine; its tallies merge into the run when it returns.
type httpSide struct {
	late, query, lag  samples
	attempted, failed uint64
	failures          []string
	err               error // the bench's own failure, which ends the run
}

// driveOpenLoop sends frames on one wire connection at a fixed rate
// while the HTTP connection runs its own schedule: /metrics polls
// every pollEvery (stream-aet), or at httpHz queries and polls in
// alternation (mixed-query). Each send is timed from its due time. The
// window closes when the schedule ends; the connection is drained
// after the closing reading so backlog shows as lost throughput.
func driveOpenLoop(r *run, w *window, rate, httpHz float64) error {
	t := r.wl.tenants[0]
	c, err := wire.Dial(r.srv.wireAddr, t.id)
	if err != nil {
		return err
	}
	if err := w.scrapeMark(); err != nil {
		c.Close()
		return err
	}
	start := time.Now()
	end := start.Add(r.cfg.seconds)
	hs := &httpSide{}
	httpDone := make(chan struct{})
	go func() {
		defer close(httpDone)
		r.httpSchedule(hs, start, end, rate, httpHz, w)
	}()

	frameDur := time.Duration(float64(frameLen) / rate * float64(time.Second))
	next := t.warm
	var sendErr error
	for f := 1; sendErr == nil; f++ {
		due := start.Add(time.Duration(f) * frameDur)
		if due.After(end) {
			break
		}
		sleepUntil(due)
		r.late.add(time.Since(due))
		off := next % len(t.stream)
		next += frameLen
		id := r.tr.begin("frame", w.span)
		if sendErr = c.SendBatch(t.stream[off : off+frameLen]); sendErr == nil {
			sendErr = c.Flush()
		}
		r.tr.end(id)
	}
	<-httpDone
	endErr := w.scrapeMark()
	st, closeErr := c.Close()
	r.account(t, st)
	if err := errors.Join(sendErr, hs.err, endErr, closeErr); err != nil {
		return err
	}

	r.late = append(r.late, hs.late...)
	r.res.Attempted += hs.attempted
	r.res.Failed += hs.failed
	r.res.Failures = append(r.res.Failures, hs.failures...)
	r.res.Info["lag_p50_ms"] = hs.lag.ms(0.50)
	r.res.Info["lag_samples"] = float64(len(hs.lag))
	if httpHz == 0 {
		r.lat = hs.lag // stream-aet: the user waits on curve freshness
	} else {
		r.lat = hs.query // mixed-query: the user waits on snapshot queries
	}
	return nil
}

// httpSchedule runs the open-loop HTTP schedule until end. A poll's
// lag is the curve's staleness when the reply arrives: reply time minus
// the due time of the newest request the model has accepted (the
// sender's frames are due every frameLen/rate seconds from start, so
// n accepted requests were all due by start + n/rate).
func (r *run) httpSchedule(hs *httpSide, start, end time.Time, rate, hz float64, w *window) {
	every := pollEvery
	if hz > 0 {
		every = time.Duration(float64(time.Second) / hz)
	}
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if !due.Before(end) {
			return
		}
		sleepUntil(due)
		hs.late.add(time.Since(due))
		hs.attempted++
		if hz > 0 && k%2 == 1 {
			q := k / 2
			path := fmt.Sprintf("/tenants/%s/mrc?size=%d", r.wl.tenants[0].id, mrcSizes[(q/2)%len(mrcSizes)])
			if q%2 == 1 {
				path = "/tenants/" + r.wl.tenants[0].id + "/curve?points=200"
			}
			id := r.tr.begin("query", w.span)
			_, err := r.srv.get(path)
			r.tr.end(id)
			if err != nil {
				hs.failed++
				hs.failures = append(hs.failures, err.Error())
				continue
			}
			hs.query.add(time.Since(due))
			continue
		}
		id := r.tr.begin("poll", w.span)
		m, err := r.srv.scrape()
		r.tr.end(id)
		got := time.Now()
		var n uint64
		if err == nil {
			n, err = counter(m, "krrserve_ingest_requests_total")
		}
		if err != nil {
			hs.failed++
			hs.failures = append(hs.failures, err.Error())
			continue
		}
		newest := start.Add(time.Duration(float64(n-w.first().processed) / rate * float64(time.Second)))
		hs.lag.add(got.Sub(newest))
		if hs.err = w.markDue(n); hs.err != nil {
			return
		}
	}
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// probe times the traced run's calls into the child after the window:
// NDJSON POSTs continuing the driven tenant's stream, snapshot queries,
// scrapes, and /allocate over every live tenant.
func (r *run) probe() error {
	t := r.wl.tenants[0]
	id := r.tr.begin("probe", 0)
	defer r.tr.end(id)
	var post, mrcQ, curveQ, scrapes, allocs samples
	for i := 0; i < probePosts; i++ {
		var body []byte
		if r.wl.http {
			body = t.bodies[(t.warm/bodyLines+i)%len(t.bodies)]
		} else {
			off := (t.warm + i*bodyLines) % len(t.stream)
			body = renderNDJSON(t.stream[off:off+bodyLines], false)
		}
		s0 := time.Now()
		if err := r.post(t, body, id); err != nil {
			return err
		}
		post.add(time.Since(s0))
	}
	timed := func(s *samples, name string, n int, path func(i int) string) error {
		for i := 0; i < n; i++ {
			sid := r.tr.begin("probe."+name, id)
			s0 := time.Now()
			_, err := r.srv.get(path(i))
			s.add(time.Since(s0))
			r.tr.end(sid)
			r.res.Attempted++
			if err != nil {
				return err
			}
		}
		return nil
	}
	fixed := func(p string) func(int) string { return func(int) string { return p } }
	mrcPath := func(i int) string {
		return fmt.Sprintf("/tenants/%s/mrc?size=%d", t.id, mrcSizes[i%len(mrcSizes)])
	}
	if err := errors.Join(
		timed(&mrcQ, "mrc", probeQueries, mrcPath),
		timed(&curveQ, "curve", probeQueries, fixed("/tenants/"+t.id+"/curve?points=200")),
		timed(&scrapes, "metrics", probeQueries, fixed("/metrics")),
		timed(&allocs, "allocate", probeAllocs, fixed(fmt.Sprintf("/allocate?budget=%d", allocBudget))),
	); err != nil {
		return err
	}
	l := r.res.Layer
	l["krrserve.post_req_ns"] = quantile(post, 0.5) / bodyLines
	l["krrserve.mrc_ms_p50"] = mrcQ.ms(0.5)
	l["krrserve.curve_ms_p50"] = curveQ.ms(0.5)
	l["krrserve.metrics_scrape_ms_p50"] = scrapes.ms(0.5)
	l["krrserve.allocate_ms_p50"] = allocs.ms(0.5)
	r.res.Info["allocate_samples"] = float64(len(allocs))
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
