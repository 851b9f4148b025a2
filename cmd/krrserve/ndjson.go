package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"krr/internal/hashing"
	"krr/internal/trace"
)

// ndjsonReader streams NDJSON ingest bodies as trace requests. It is
// strictly line-delimited (one JSON object per line, as the NDJSON
// spec requires) and parses canonical lines — flat objects with
// integer or plain-ASCII-string keys — with a hand-rolled scanner that
// allocates nothing per line. Anything the fast parser does not
// recognize (escaped or non-ASCII strings, floats, unknown fields,
// unusual whitespace) falls back to encoding/json for that line, so
// the accepted language and the produced requests are unchanged; only
// the cost of the common case is.
//
// The previous implementation ran json.Decoder.Decode into a struct
// with a json.RawMessage key per line — several heap allocations per
// request. Under the batched ingest plane the parser is the whole HTTP
// ingest cost, so this path is worth the hand-rolled scanner.
type ndjsonReader struct {
	sc   *bufio.Scanner
	buf  *[ndjsonBufLen]byte // the pooled scanner buffer, until release
	line int
	// forceSlow routes every line through the encoding/json fallback —
	// the equivalence tests pin fast == slow on identical input.
	forceSlow bool
}

// maxNDJSONLine bounds one ingest line (1 MiB, far past any real key).
const maxNDJSONLine = 1 << 20

// ndjsonBufLen is the scanner's initial buffer, recycled across bodies
// through ndjsonBufs so a steady stream of POSTs allocates none.
const ndjsonBufLen = 64 << 10

var ndjsonBufs = sync.Pool{New: func() any { return new([ndjsonBufLen]byte) }}

// newNDJSONReader wraps an ingest body. The caller must release the
// reader once it is drained.
func newNDJSONReader(r io.Reader) *ndjsonReader {
	buf := ndjsonBufs.Get().(*[ndjsonBufLen]byte)
	sc := bufio.NewScanner(r)
	sc.Buffer(buf[:], maxNDJSONLine)
	return &ndjsonReader{sc: sc, buf: buf}
}

// release returns the pooled buffer; the reader is unusable afterwards.
// A scanner that grew past the pooled buffer for a long line holds its
// own grown copy, which is left to the collector; only the original
// array goes back.
func (r *ndjsonReader) release() {
	if r.buf != nil {
		ndjsonBufs.Put(r.buf)
		r.buf, r.sc = nil, nil
	}
}

// Next implements trace.Reader.
func (r *ndjsonReader) Next() (trace.Request, error) {
	for {
		if !r.sc.Scan() {
			if err := r.sc.Err(); err != nil {
				return trace.Request{}, fmt.Errorf("line %d: %w", r.line+1, err)
			}
			return trace.Request{}, io.EOF
		}
		r.line++
		line := r.sc.Bytes()
		if isBlank(line) {
			continue
		}
		if !r.forceSlow {
			if req, ok := parseNDJSONLine(line); ok {
				return req, nil
			}
		}
		// Slow path: exotic but possibly valid line.
		var n ndjsonReq
		if err := json.Unmarshal(line, &n); err != nil {
			return trace.Request{}, fmt.Errorf("line %d: %w", r.line, err)
		}
		req, err := n.request()
		if err != nil {
			return trace.Request{}, fmt.Errorf("line %d: %w", r.line, err)
		}
		return req, nil
	}
}

func isBlank(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}

// parseNDJSONLine is the allocation-free fast path for one canonical
// request line. It returns ok=false — punting to encoding/json — for
// anything outside the canonical shape, including every error case, so
// error messages always come from the fallback and stay identical to
// the pre-fast-path behaviour.
func parseNDJSONLine(b []byte) (trace.Request, bool) {
	var req trace.Request
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	var haveKey bool
	if i < len(b) && b[i] == '}' {
		return req, false // no fields -> "missing key" error, fallback
	}
	for {
		// Field name.
		name, j, ok := parseString(b, i)
		if !ok {
			return req, false
		}
		i = skipSpace(b, j)
		if i >= len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		// Field value, dispatched on the name.
		switch {
		case bytesEq(name, "key"):
			if i < len(b) && b[i] == '"' {
				s, j, ok := parseString(b, i)
				if !ok {
					return req, false
				}
				req.Key = hashing.Bytes(s)
				i = j
			} else {
				v, j, ok := parseUint(b, i, math.MaxUint64)
				if !ok {
					return req, false
				}
				req.Key = v
				i = j
			}
			haveKey = true
		case bytesEq(name, "size"):
			v, j, ok := parseUint(b, i, math.MaxUint32)
			if !ok {
				return req, false
			}
			req.Size = uint32(v)
			i = j
		case bytesEq(name, "op"):
			s, j, ok := parseString(b, i)
			if !ok {
				return req, false
			}
			switch {
			case len(s) == 0, bytesEq(s, "get"):
				req.Op = trace.OpGet
			case bytesEq(s, "set"):
				req.Op = trace.OpSet
			case bytesEq(s, "delete"):
				req.Op = trace.OpDelete
			default:
				return req, false // unknown op -> fallback for the error
			}
			i = j
		default:
			return req, false // unknown field: json ignores it; punt
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return req, false
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return req, false
		}
		i = skipSpace(b, i+1)
	}
	if skipSpace(b, i+1) != len(b) {
		return req, false // trailing bytes after the object
	}
	if !haveKey {
		return req, false // -> "missing key" error from the fallback
	}
	if req.Size == 0 {
		req.Size = trace.DefaultObjectSize
	}
	return req, true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// parseString parses a JSON string starting at b[i] and returns its
// raw contents. It only accepts printable-ASCII strings with no escape
// sequences — the raw bytes then equal the decoded string, so they can
// be compared and hashed directly. Everything else punts to the
// fallback (which also canonicalizes invalid UTF-8 the way
// encoding/json does).
func parseString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	start := i + 1
	for j := start; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[start:j], j + 1, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, i, false
		}
	}
	return nil, i, false
}

// parseUint parses a plain non-negative JSON integer at b[i]. Signs,
// fractions, exponents, leading zeros and overflow all punt.
func parseUint(b []byte, i int, max uint64) (uint64, int, bool) {
	start := i
	var v uint64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		d := uint64(b[i] - '0')
		if v > (max-d)/10 {
			return 0, start, false
		}
		v = v*10 + d
		i++
	}
	if i == start {
		return 0, start, false
	}
	if b[start] == '0' && i-start > 1 {
		return 0, start, false // leading zero: not a valid JSON number
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, start, false
	}
	return v, i, true
}

func bytesEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}
