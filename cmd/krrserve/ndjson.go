package main

import (
	"bufio"
	"bytes"
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
// spec requires) and a trace.BatchReader: NextBatch parses each line
// of a pooled buffer straight into the caller's batch. Canonical lines
// — flat objects with integer or plain-ASCII-string keys — go through
// a hand-rolled parser that allocates nothing and hashes a string key
// while checking it; it never accepts a newline, so such a line parses
// in place and ends at the newline after its object. Other lines are
// found with bytes.IndexByte. Anything the parser does not recognize
// (escaped or non-ASCII strings, floats, unknown fields, unusual
// whitespace) falls back to encoding/json for that line, so the
// accepted language, the produced requests and the error messages are
// those of encoding/json; only the cost of the common case differs.
//
// Lines split the way bufio.Scanner with bufio.ScanLines splits them,
// including its buffer growth up to maxNDJSONLine, its "token too
// long" error and its handling of a read error (the bytes read before
// it are still split into lines); ndjson_ref_test.go pins that.
type ndjsonReader struct {
	src    io.Reader
	pooled *[ndjsonBufLen]byte // the pooled initial buffer, until release
	buf    []byte              // pooled[:], or a grown copy for a long line
	start  int                 // buf[start:end] is read but not yet split
	end    int
	err    error // the first read error; io.EOF at the end of the body
	line   int   // lines split so far
}

// maxNDJSONLine bounds one ingest line (1 MiB, far past any real key).
const maxNDJSONLine = 1 << 20

// ndjsonBufLen is the reader's initial buffer, recycled across bodies
// through ndjsonBufs so a steady stream of POSTs allocates none.
const ndjsonBufLen = 64 << 10

var ndjsonBufs = sync.Pool{New: func() any { return new([ndjsonBufLen]byte) }}

// maxEmptyReads is how many consecutive (0, nil) reads end a body with
// io.ErrNoProgress, as in bufio.Scanner.
const maxEmptyReads = 100

// newNDJSONReader wraps an ingest body. The caller must release the
// reader once it is drained.
func newNDJSONReader(r io.Reader) *ndjsonReader {
	pooled := ndjsonBufs.Get().(*[ndjsonBufLen]byte)
	return &ndjsonReader{src: r, pooled: pooled, buf: pooled[:]}
}

// release returns the pooled buffer; the reader is unusable afterwards.
// A buffer grown past the pooled one for a long line is left to the
// collector; only the original array goes back.
func (r *ndjsonReader) release() {
	if r.pooled != nil {
		ndjsonBufs.Put(r.pooled)
		r.pooled, r.buf, r.src = nil, nil, nil
	}
}

// Next implements trace.Reader.
func (r *ndjsonReader) Next() (trace.Request, error) {
	var one [1]trace.Request
	if _, err := r.NextBatch(one[:]); err != nil {
		return trace.Request{}, err
	}
	return one[0], nil
}

// NextBatch implements trace.BatchReader. It fills dst until it is
// full, the body ends or a line fails; a failed line's error follows
// the requests decoded before it.
func (r *ndjsonReader) NextBatch(dst []trace.Request) (int, error) {
	n := 0
	for n < len(dst) {
		// A canonical line parses in place: the parser never crosses a
		// '\n', so no separate newline search is needed.
		rest := r.buf[r.start:r.end]
		if req, end, ok := parseRequest(rest); ok && end < len(rest) && rest[end] == '\n' {
			r.start += end + 1
			r.line++
			dst[n] = req
			n++
			continue
		}
		line, err := r.nextLine()
		if err != nil {
			if n > 0 && err == io.EOF {
				return n, nil
			}
			return n, err
		}
		if skipSpace(line, 0) == len(line) {
			continue // blank line
		}
		req, ok := parseNDJSONLine(line)
		if !ok {
			// Slow path: exotic but possibly valid line.
			if req, err = decodeNDJSONLine(line); err != nil {
				return n, fmt.Errorf("line %d: %w", r.line, err)
			}
		}
		dst[n] = req
		n++
	}
	return n, nil
}

// nextLine returns the next line without its newline and one trailing
// '\r', as bufio.ScanLines does. The line aliases the buffer until the
// next call. At the end of the body it returns io.EOF; after a read
// error, once the bytes before it are split, it returns that error
// with the number of the line it cut.
func (r *ndjsonReader) nextLine() ([]byte, error) {
	for {
		if i := bytes.IndexByte(r.buf[r.start:r.end], '\n'); i >= 0 {
			line := r.buf[r.start : r.start+i]
			r.start += i + 1
			r.line++
			return dropCR(line), nil
		}
		if r.err != nil {
			if r.start < r.end {
				line := r.buf[r.start:r.end]
				r.start = r.end
				r.line++
				return dropCR(line), nil
			}
			if r.err == io.EOF {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("line %d: %w", r.line+1, r.err)
		}
		if err := r.fill(); err != nil {
			return nil, fmt.Errorf("line %d: %w", r.line+1, err)
		}
	}
}

// fill reads more of the body, first making room the way bufio.Scanner
// does: unsplit bytes move to the front of the buffer when it is full
// or more than half consumed, and a full buffer doubles up to
// maxNDJSONLine. A line that would need more fails with
// bufio.ErrTooLong. Read errors are kept in r.err.
func (r *ndjsonReader) fill() error {
	if r.start > 0 && (r.end == len(r.buf) || r.start > len(r.buf)/2) {
		copy(r.buf, r.buf[r.start:r.end])
		r.end -= r.start
		r.start = 0
	}
	if r.end == len(r.buf) {
		if len(r.buf) >= maxNDJSONLine {
			return bufio.ErrTooLong
		}
		grown := make([]byte, min(2*len(r.buf), maxNDJSONLine))
		copy(grown, r.buf[r.start:r.end])
		r.buf = grown
		r.end -= r.start
		r.start = 0
	}
	for empty := 0; ; {
		n, err := r.src.Read(r.buf[r.end:])
		if n < 0 || len(r.buf)-r.end < n {
			r.err = bufio.ErrBadReadCount
			return nil
		}
		r.end += n
		if err != nil {
			r.err = err
			return nil
		}
		if n > 0 {
			return nil
		}
		if empty++; empty > maxEmptyReads {
			r.err = io.ErrNoProgress
			return nil
		}
	}
}

func dropCR(b []byte) []byte {
	if len(b) > 0 && b[len(b)-1] == '\r' {
		return b[:len(b)-1]
	}
	return b
}

// decodeNDJSONLine is the slow path: encoding/json decodes the line.
// Its errors are the ones the ingest route reports.
func decodeNDJSONLine(line []byte) (trace.Request, error) {
	var n ndjsonReq
	if err := json.Unmarshal(line, &n); err != nil {
		return trace.Request{}, err
	}
	return n.request()
}

// parseNDJSONLine is the allocation-free fast path for one canonical
// request line. It returns ok=false — punting to encoding/json — for
// anything outside the canonical shape, including every error case, so
// error messages always come from the fallback.
func parseNDJSONLine(b []byte) (trace.Request, bool) {
	req, end, ok := parseRequest(b)
	return req, ok && end == len(b)
}

// parseRequest parses one canonical request object at the start of b
// and returns the index past it and the whitespace after it. Field
// names are matched by their bytes: encoding/json also accepts other
// casings, which therefore punt. It never accepts a '\n', so on
// buffered input the object lies within the first line.
func parseRequest(b []byte) (req trace.Request, end int, ok bool) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return req, 0, false
	}
	haveKey := false
	for {
		i = skipSpace(b, i+1) // past '{' or ','
		// Each comparison is against a constant, which the compiler
		// turns into a few word loads instead of a memequal call.
		switch rest := b[i:]; {
		case len(rest) >= 5 && string(rest[:5]) == `"key"`:
			i = skipColon(b, i+5)
			if i < len(b) && b[i] == '"' {
				req.Key, i, ok = hashString(b, i+1)
			} else {
				req.Key, i, ok = parseUint(b, i, math.MaxUint64)
			}
			haveKey = true
		case len(rest) >= 6 && string(rest[:6]) == `"size"`:
			var v uint64
			v, i, ok = parseUint(b, skipColon(b, i+6), math.MaxUint32)
			req.Size = uint32(v)
		case len(rest) >= 4 && string(rest[:4]) == `"op"`:
			req.Op, i, ok = parseOp(b, skipColon(b, i+4))
		default:
			return req, 0, false // unknown field (json ignores it), or no field
		}
		if !ok {
			return req, 0, false
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return req, 0, false
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return req, 0, false
		}
	}
	if !haveKey {
		return req, 0, false // -> "missing key" error from the fallback
	}
	if req.Size == 0 {
		req.Size = trace.DefaultObjectSize
	}
	return req, skipSpace(b, i+1), true
}

// skipColon skips the ':' after a field name and the whitespace around
// it. Without a ':' it returns len(b), where every value parser fails.
func skipColon(b []byte, i int) int {
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != ':' {
		return len(b)
	}
	return skipSpace(b, i+1)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// hashString hashes the JSON string whose contents start at b[i] as
// hashing.Bytes hashes them, and returns the index past its closing
// quote. It accepts only printable ASCII with no escape sequences —
// the raw bytes then equal the decoded string. Everything else punts
// to the fallback, which also canonicalizes invalid UTF-8 the way
// encoding/json does.
func hashString(b []byte, i int) (uint64, int, bool) {
	h := uint64(hashing.FNVOffset)
	for ; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			return hashing.Mix64(h), i + 1, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return 0, i, false
		}
		h = (h ^ uint64(c)) * hashing.FNVPrime
	}
	return 0, i, false
}

// parseOp parses the op string at b[i]; the empty string means get.
func parseOp(b []byte, i int) (trace.Op, int, bool) {
	switch rest := b[i:]; {
	case len(rest) >= 5 && string(rest[:5]) == `"get"`:
		return trace.OpGet, i + 5, true
	case len(rest) >= 5 && string(rest[:5]) == `"set"`:
		return trace.OpSet, i + 5, true
	case len(rest) >= 8 && string(rest[:8]) == `"delete"`:
		return trace.OpDelete, i + 8, true
	case len(rest) >= 2 && string(rest[:2]) == `""`:
		return trace.OpGet, i + 2, true
	}
	return 0, i, false // unknown op -> fallback for the error
}

// parseUint parses a plain non-negative JSON integer at b[i]. Signs,
// fractions, exponents, leading zeros and values above max all punt.
func parseUint(b []byte, i int, max uint64) (uint64, int, bool) {
	start := i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		d := uint64(b[i] - '0')
		// Nineteen digits cannot overflow; check from the twentieth.
		if i-start >= 19 && v > (math.MaxUint64-d)/10 {
			return 0, start, false
		}
		v = v*10 + d
	}
	if n := i - start; n == 0 || (n > 1 && b[start] == '0') || v > max {
		return 0, start, false // no digits, a leading zero, or too large
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, start, false
	}
	return v, i, true
}
