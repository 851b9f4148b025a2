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
// several lines) must drain through NextBatch, at a fuzzed batch
// length, to the same requests and the same error as through the
// Scanner reference, on recycled pooled buffers.
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
		f.Add([]byte(seed), uint16(len(seed)%5))
	}
	f.Fuzz(func(t *testing.T, line []byte, batch uint16) {
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

		// The reference starts on the buffer the batch reader released,
		// so leftover bytes would show as a mismatch.
		k := int(batch)%4096 + 1
		fastReader := newNDJSONReader(bytes.NewReader(line))
		fastReqs, fastErr := drainBatches(fastReader, k)
		fastReader.release()
		refReader := newRefNDJSONReader(bytes.NewReader(line))
		refReqs, refErr := drain(refReader)
		refReader.release()
		if (fastErr == nil) != (refErr == nil) || (fastErr != nil && fastErr.Error() != refErr.Error()) {
			t.Fatalf("body %q, batch %d: error %v, reference error %v", line, k, fastErr, refErr)
		}
		if len(fastReqs) != len(refReqs) {
			t.Fatalf("body %q, batch %d: %d requests, reference %d", line, k, len(fastReqs), len(refReqs))
		}
		for i := range fastReqs {
			if fastReqs[i] != refReqs[i] {
				t.Fatalf("body %q, batch %d, request %d: %+v != reference %+v", line, k, i, fastReqs[i], refReqs[i])
			}
		}
	})
}
