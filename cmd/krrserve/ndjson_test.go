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
// mix, forced fallback, legacy decoder).
func TestNDJSONFastPathEquivalence(t *testing.T) {
	corpus := ndjsonCorpus()

	fast, err := drain(newNDJSONReader(strings.NewReader(corpus)))
	if err != nil {
		t.Fatal(err)
	}
	slowReader := newNDJSONReader(strings.NewReader(corpus))
	slowReader.forceSlow = true
	slow, err := drain(slowReader)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := drain(legacyNDJSONReader(strings.NewReader(corpus)))
	if err != nil {
		t.Fatal(err)
	}

	if len(fast) != len(slow) || len(fast) != len(legacy) {
		t.Fatalf("lengths: fast %d slow %d legacy %d", len(fast), len(slow), len(legacy))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("request %d: fast %+v != forced-slow %+v", i, fast[i], slow[i])
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

// BenchmarkNDJSONDecode is the satellite's before/after: the legacy
// json.Decoder path versus the fast line parser on identical canonical
// bodies. Allocations per request are the headline number.
func BenchmarkNDJSONDecode(b *testing.B) {
	const lines = 10000
	body := canonicalBody(lines)
	for _, bench := range []struct {
		name string
		mk   func() trace.Reader
	}{
		{"legacy", func() trace.Reader { return legacyNDJSONReader(strings.NewReader(body)) }},
		{"fast", func() trace.Reader { return newNDJSONReader(strings.NewReader(body)) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var buf [64]trace.Request
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := bench.mk()
				n := 0
				for {
					k, err := trace.ReadBatch(r, buf[:])
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
