package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzNDJSON pins the hand-rolled NDJSON line parser to its
// encoding/json fallback. On any line the fast path either punts or
// yields exactly the request the fallback decodes — it never accepts a
// line the fallback rejects. Whole bodies (the fuzzer's bytes may hold
// several lines) must drain to the same requests and the same error
// with and without forceSlow, on recycled scanner buffers.
func FuzzNDJSON(f *testing.F) {
	for _, seed := range []string{
		`{"key": 42, "size": 512, "op": "get"}`,
		`{"key":"obj-7","size":4096}`,
		`{"size": 100, "op": "set", "key": 18446744073709551615}`,
		`{"key": 3, "op": "delete"}`,
		`  { "key" :	9 , "size" : 1 }  `,
		`{"key": "a\"b"}`,
		`{"key": "héllo"}`,
		"{\"key\": \"\xff\"}",
		`{"key": 1, "key": "dup"}`,
		`{"key": 1, "size": 7, "size": 0}`,
		`{"key": 5, "size": 0}`,
		`{"key": 5, "op": ""}`,
		`{"key": 5, "op": "GET"}`,
		`{"key": 1.5}`,
		`{"key": 1e3, "size": 2.0}`,
		`{"key": 007}`,
		`{"key": 0, "size": 00}`,
		`{"key": 18446744073709551616}`,
		`{"key": 1, "size": 4294967296}`,
		`{"key": 1, "size": 4294967295}`,
		`{"key": -1}`,
		`{"key": null}`,
		`{"Key": 1}`,
		`{"key": 1, "ts": 2}`,
		`{"key": 1,}`,
		`{"key": 1} trailing`,
		`{}`,
		`[1]`,
		"{\"key\": 1}\n\n  \n{\"key\": \"x\", \"op\": \"delete\"}",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if fast, ok := parseNDJSONLine(line); ok {
			var n ndjsonReq
			if err := json.Unmarshal(line, &n); err != nil {
				t.Fatalf("fast path accepted %q; encoding/json rejects it: %v", line, err)
			}
			slow, err := n.request()
			if err != nil {
				t.Fatalf("fast path accepted %q; the fallback rejects it: %v", line, err)
			}
			if fast != slow {
				t.Fatalf("line %q: fast %+v != fallback %+v", line, fast, slow)
			}
		}

		// The forced-slow reader starts on the buffer the fast one
		// released, so leftover bytes would show as a mismatch.
		fastReader := newNDJSONReader(bytes.NewReader(line))
		fastReqs, fastErr := drain(fastReader)
		fastReader.release()
		slowReader := newNDJSONReader(bytes.NewReader(line))
		slowReader.forceSlow = true
		slowReqs, slowErr := drain(slowReader)
		slowReader.release()
		if (fastErr == nil) != (slowErr == nil) || (fastErr != nil && fastErr.Error() != slowErr.Error()) {
			t.Fatalf("body %q: fast error %v, forced-slow error %v", line, fastErr, slowErr)
		}
		if len(fastReqs) != len(slowReqs) {
			t.Fatalf("body %q: fast %d requests, forced-slow %d", line, len(fastReqs), len(slowReqs))
		}
		for i := range fastReqs {
			if fastReqs[i] != slowReqs[i] {
				t.Fatalf("body %q request %d: fast %+v != forced-slow %+v", line, i, fastReqs[i], slowReqs[i])
			}
		}
	})
}
