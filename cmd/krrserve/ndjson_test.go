package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"

	"krr/internal/fleet"
	"krr/internal/hashing"
	"krr/internal/trace"
)

// legacyNDJSONReader is the pre-fast-path implementation — a streaming
// json.Decoder per body — kept verbatim as the reference for the
// equivalence tests and the "before" side of the ingest benchmark.
func legacyNDJSONReader(r io.Reader) trace.Reader {
	dec := json.NewDecoder(r)
	line := 0
	return trace.FuncReader(func() (trace.Request, error) {
		line++
		var n ndjsonReq
		if err := dec.Decode(&n); err != nil {
			if errors.Is(err, io.EOF) {
				return trace.Request{}, io.EOF
			}
			return trace.Request{}, fmt.Errorf("line %d: %w", line, err)
		}
		req, err := n.request()
		if err != nil {
			return trace.Request{}, fmt.Errorf("line %d: %w", line, err)
		}
		return req, nil
	})
}

func drain(r trace.Reader) ([]trace.Request, error) {
	var out []trace.Request
	for {
		req, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, req)
	}
}

// ndjsonCorpus mixes canonical fast-path lines with every exotic shape
// the fallback must cover.
func ndjsonCorpus() string {
	var sb strings.Builder
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		switch i % 10 {
		case 0:
			fmt.Fprintf(&sb, "{\"key\": \"obj-%d\", \"size\": %d}\n", rng.IntN(500), rng.IntN(4096)+1)
		case 1:
			fmt.Fprintf(&sb, "{\"size\": %d, \"op\": \"set\", \"key\": %d}\n", rng.IntN(4096)+1, rng.IntN(500))
		case 2:
			fmt.Fprintf(&sb, "{\"key\": %d, \"op\": \"delete\"}\n", rng.IntN(500))
		case 3:
			// Escaped string key: fallback territory.
			fmt.Fprintf(&sb, "{\"key\": \"a\\\"b-%d\"}\n", rng.IntN(500))
		case 4:
			// Non-ASCII key: fallback territory.
			fmt.Fprintf(&sb, "{\"key\": \"héllo-%d\"}\n", rng.IntN(500))
		case 5:
			// Unknown extra field: fallback (json ignores it).
			fmt.Fprintf(&sb, "{\"key\": %d, \"ts\": 123}\n", rng.IntN(500))
		case 6:
			// Blank and whitespace-only lines are skipped.
			sb.WriteString("   \n")
			fmt.Fprintf(&sb, "{\"key\": %d}\n", rng.IntN(500))
		case 7:
			// Exotic whitespace inside the object.
			fmt.Fprintf(&sb, "  { \"key\" :\t%d , \"size\" : %d }  \n", rng.IntN(500), rng.IntN(4096)+1)
		default:
			fmt.Fprintf(&sb, "{\"key\": %d, \"size\": %d, \"op\": \"get\"}\n", rng.IntN(100000), rng.IntN(4096)+1)
		}
	}
	return sb.String()
}

// TestNDJSONFastPathEquivalence pins the hand-rolled parser to the
// encoding/json semantics on a corpus mixing canonical and exotic
// lines: identical request streams from all three paths (fast+fallback
// mix, the Scanner reference decoding every line with encoding/json,
// legacy decoder).
func TestNDJSONFastPathEquivalence(t *testing.T) {
	corpus := ndjsonCorpus()

	fast, err := drain(newNDJSONReader(strings.NewReader(corpus)))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := drain(newRefNDJSONReader(strings.NewReader(corpus)))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := drain(legacyNDJSONReader(strings.NewReader(corpus)))
	if err != nil {
		t.Fatal(err)
	}

	if len(fast) != len(ref) || len(fast) != len(legacy) {
		t.Fatalf("lengths: fast %d reference %d legacy %d", len(fast), len(ref), len(legacy))
	}
	for i := range fast {
		if fast[i] != ref[i] {
			t.Fatalf("request %d: fast %+v != reference %+v", i, fast[i], ref[i])
		}
		if fast[i] != legacy[i] {
			t.Fatalf("request %d: fast %+v != legacy %+v", i, fast[i], legacy[i])
		}
	}
}

// TestNDJSONErrors pins rejection with line numbers on malformed input.
func TestNDJSONErrors(t *testing.T) {
	cases := []struct{ name, body string }{
		{"missing key", "{\"key\": 1}\n{\"size\": 5}\n"},
		{"bad op", "{\"key\": 1, \"op\": \"frob\"}\n"},
		{"not json", "{\"key\": 1}\nnonsense\n"},
		{"bad key type", "{\"key\": [1,2]}\n"},
		{"float size", "{\"key\": 1, \"size\": 1.5}\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := drain(newNDJSONReader(strings.NewReader(tc.body)))
			if err == nil {
				t.Fatalf("accepted %q", tc.body)
			}
			if !strings.Contains(err.Error(), "line ") {
				t.Fatalf("error lacks line number: %v", err)
			}
		})
	}
}

// TestNDJSONFastParseCases pins individual fast-parser behaviours.
func TestNDJSONFastParseCases(t *testing.T) {
	// Canonical lines must take the fast path (not merely agree with it):
	// these shapes are the hot ingest format.
	fastCases := []string{
		`{"key": 7}`,
		`{"key": 7, "size": 100, "op": "get"}`,
		`{"op": "set", "key": 7, "size": 1}`,
		`{"key": "user:123:profile", "size": 4096}`,
		`{"key": 18446744073709551615}`, // max uint64
	}
	for _, line := range fastCases {
		if _, ok := parseNDJSONLine([]byte(line)); !ok {
			t.Errorf("canonical line punted to fallback: %s", line)
		}
	}
	// These must punt (ok=false), never mis-parse.
	slowCases := []string{
		``,
		`{}`,
		`{"key": -1}`,
		`{"key": 1.5}`,
		`{"key": 01}`,
		`{"key": 18446744073709551616}`,  // uint64 overflow
		`{"key": 1, "size": 4294967296}`, // uint32 overflow
		`{"key": "a\"b"}`,
		`{"key": "ü"}`,
		`{"key": 1} trailing`,
		`{"key": 1 "size": 2}`,
		`{"unknown": 1, "key": 2}`,
	}
	for _, line := range slowCases {
		if req, ok := parseNDJSONLine([]byte(line)); ok {
			t.Errorf("fast path accepted %s -> %+v", line, req)
		}
	}
	// String keys hash exactly like the legacy path.
	req, ok := parseNDJSONLine([]byte(`{"key": "user:42"}`))
	if !ok || req.Key != hashing.String("user:42") {
		t.Fatalf("string key hash mismatch: %+v ok=%v", req, ok)
	}
	// Default size applies on the fast path too.
	if req.Size != trace.DefaultObjectSize {
		t.Fatalf("default size not applied: %+v", req)
	}
}

// canonicalBody renders n canonical NDJSON lines, the shape krrbench
// and production mirrors send.
func canonicalBody(n int) string {
	var sb strings.Builder
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "{\"key\": %d, \"size\": %d, \"op\": \"get\"}\n", rng.IntN(100000), rng.IntN(4096)+1)
	}
	return sb.String()
}

// TestNDJSONReleaseAllocFree pins the recycled scanner buffer: once
// warm, draining and releasing a 10,000-line canonical body allocates
// only the reader's small headers, not a 64 KiB buffer per body.
func TestNDJSONReleaseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const lines = 10000
	body := canonicalBody(lines)
	src := strings.NewReader(body)
	run := func() {
		src.Reset(body)
		r := newNDJSONReader(src)
		n := 0
		for {
			_, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		r.release()
		if n != lines {
			t.Fatalf("decoded %d lines, want %d", n, lines)
		}
	}
	for i := 0; i < 5; i++ {
		run()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per %d-line body", per, lines)
	if per >= 4<<10 {
		t.Fatalf("%d bytes allocated per %d-line body, want < %d", per, lines, 4<<10)
	}
}

// TestNDJSONIngestAllocGuard pins the pipelined HTTP ingest route
// below HTTP: once warm, a 10,000-line body in krrbench's string-key
// layout, decoded by the NDJSON reader and fed through
// fleet.Registry.Ingest into an aet tenant, allocates less than 4 KiB —
// the reader, the pipeline's channels and its decoder goroutine, but
// no buffer or batch.
func TestNDJSONIngestAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const lines = 10000
	body := stringKeyBody(lines)
	reg := fleet.NewRegistry(fleet.Config{Default: fleet.Spec{Model: "aet"}})
	src := strings.NewReader(body)
	run := func() {
		src.Reset(body)
		r := newNDJSONReader(src)
		n, err := reg.Ingest("nd", r)
		r.release()
		if err != nil || n != lines {
			t.Fatalf("ingested %d lines (%v), want %d", n, err, lines)
		}
	}
	for i := 0; i < 5; i++ {
		run()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per %d-line body", per, lines)
	if per >= 4<<10 {
		t.Fatalf("%d bytes allocated per %d-line body, want < %d", per, lines, 4<<10)
	}
}

// stringKeyBody renders n lines in the layout krrbench's http-ndjson
// workload sends: "user:<n>" string keys, no spaces.
func stringKeyBody(n int) string {
	var sb strings.Builder
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "{\"key\":\"user:%d\",\"size\":200,\"op\":\"get\"}\n", rng.IntN(1_000_000))
	}
	return sb.String()
}

// BenchmarkNDJSONDecode is the decode layer's before/after: the legacy
// json.Decoder path versus the batch reader on identical canonical
// bodies with integer keys and spaces, and the batch reader on
// krrbench's string-key layout. Each body drains in Registry.Ingest's
// 4096-request batches. Allocations per request are the headline
// number of the first pair.
func BenchmarkNDJSONDecode(b *testing.B) {
	const lines = 10000
	body, strBody := canonicalBody(lines), stringKeyBody(lines)
	for _, bench := range []struct {
		name string
		body string
		mk   func(string) trace.Reader
	}{
		{"legacy", body, func(s string) trace.Reader { return legacyNDJSONReader(strings.NewReader(s)) }},
		{"fast", body, func(s string) trace.Reader { return newNDJSONReader(strings.NewReader(s)) }},
		{"string-keys", strBody, func(s string) trace.Reader { return newNDJSONReader(strings.NewReader(s)) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			buf := make([]trace.Request, 4096)
			b.SetBytes(int64(len(bench.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := bench.mk(bench.body)
				n := 0
				for {
					k, err := trace.ReadBatch(r, buf)
					n += k
					if err != nil {
						if errors.Is(err, io.EOF) {
							break
						}
						b.Fatal(err)
					}
				}
				if nr, ok := r.(*ndjsonReader); ok {
					nr.release()
				}
				if n != lines {
					b.Fatalf("decoded %d, want %d", n, lines)
				}
			}
		})
	}
}
