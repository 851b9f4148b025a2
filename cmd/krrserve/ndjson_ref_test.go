package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/iotest"

	"krr/internal/trace"
)

// refNDJSONReader is the bufio.Scanner reader that ndjsonReader
// replaced, kept as a test-only reference: a Scanner over the pooled
// buffer with a maxNDJSONLine token limit, one Next call per line, and
// every line decoded by encoding/json. ndjsonReader must produce the
// same requests, the same errors and the same line numbers.
type refNDJSONReader struct {
	sc   *bufio.Scanner
	buf  *[ndjsonBufLen]byte
	line int
}

func newRefNDJSONReader(r io.Reader) *refNDJSONReader {
	buf := ndjsonBufs.Get().(*[ndjsonBufLen]byte)
	sc := bufio.NewScanner(r)
	sc.Buffer(buf[:], maxNDJSONLine)
	return &refNDJSONReader{sc: sc, buf: buf}
}

func (r *refNDJSONReader) release() {
	if r.buf != nil {
		ndjsonBufs.Put(r.buf)
		r.buf, r.sc = nil, nil
	}
}

func (r *refNDJSONReader) Next() (trace.Request, error) {
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
		req, err := decodeNDJSONLine(line)
		if err != nil {
			return trace.Request{}, fmt.Errorf("line %d: %w", r.line, err)
		}
		return req, nil
	}
}

// drainBatches drains r through NextBatch with a dst of length k,
// stopping at the first error other than io.EOF.
func drainBatches(r *ndjsonReader, k int) ([]trace.Request, error) {
	var out []trace.Request
	dst := make([]trace.Request, k)
	for {
		n, err := r.NextBatch(dst)
		out = append(out, dst[:n]...)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if n == 0 {
			return out, errors.New("NextBatch returned 0 requests without an error")
		}
	}
}

// checkAgainstRef decodes body with ndjsonReader at batch length k and
// with the reference, and fails unless requests and errors agree.
func checkAgainstRef(t *testing.T, name string, body func() io.Reader, k int) {
	t.Helper()
	fast := newNDJSONReader(body())
	got, gotErr := drainBatches(fast, k)
	fast.release()
	ref := newRefNDJSONReader(body())
	want, wantErr := drain(ref)
	ref.release()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s, batch %d: error %v, reference %v", name, k, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s, batch %d: %d requests, reference %d", name, k, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s, batch %d: request %d is %+v, reference %+v", name, k, i, got[i], want[i])
		}
	}
}

// longLine is one canonical line of exactly n bytes, without newline.
func longLine(n int) string {
	const head, tail = `{"key":"`, `"}`
	return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
}

// TestNDJSONReaderMatchesScannerReference pins NextBatch to the
// Scanner reader on bodies that exercise line splitting: lines across
// the 64 KiB buffer edge, lines at and past the 1 MiB limit, CRLF,
// blank lines, a last line without newline, malformed lines, and read
// errors mid-body, each at batch lengths 1, 3 and 4096.
func TestNDJSONReaderMatchesScannerReference(t *testing.T) {
	var straddle strings.Builder
	rng := rand.New(rand.NewPCG(5, 6))
	for straddle.Len() < 3*ndjsonBufLen {
		fmt.Fprintf(&straddle, "{\"key\":\"%s\",\"size\":%d}\n", strings.Repeat("k", rng.IntN(900)), rng.IntN(4096)+1)
	}
	readErr := errors.New("connection reset")
	good := "{\"key\": 1}\n{\"key\": \"two\", \"op\": \"set\"}\n"
	bodies := map[string]string{
		"corpus":                   ndjsonCorpus(),
		"straddles 64 KiB":         straddle.String(),
		"line of 1 MiB - 1":        good + longLine(maxNDJSONLine-1) + "\n" + good,
		"line of 1 MiB - 1 at end": good + longLine(maxNDJSONLine-1),
		"line of 1 MiB":            good + longLine(maxNDJSONLine) + "\n" + good,
		"line of 1 MiB + 1":        good + longLine(maxNDJSONLine+1) + "\n" + good,
		"crlf":                     "{\"key\": 1}\r\n{\"key\": 2}\r\n\r\n{\"key\": \"x\"}\r\n",
		"blank lines":              "\n\n  \n\t\r\n{\"key\": 1}\n\n{\"key\": 2}\n   ",
		"no final newline":         "{\"key\": 1}\n{\"key\": 2, \"size\": 9}",
		"no final newline, cr":     "{\"key\": 1}\n{\"key\": 2}\r",
		"bad line":                 good + "{\"key\": oops}\n" + good,
		"missing key":              good + "{\"size\": 5}\n",
		"bad op":                   good + "{\"key\": 1, \"op\": \"frob\"}\n",
		"empty":                    "",
	}
	sources := map[string]func(string) io.Reader{
		"whole":        func(s string) io.Reader { return strings.NewReader(s) },
		"one byte":     func(s string) io.Reader { return iotest.OneByteReader(strings.NewReader(s)) },
		"data and EOF": func(s string) io.Reader { return iotest.DataErrReader(strings.NewReader(s)) },
		"error after": func(s string) io.Reader {
			return io.MultiReader(strings.NewReader(s), iotest.ErrReader(readErr))
		},
		"error mid-line": func(s string) io.Reader {
			return io.MultiReader(strings.NewReader(s[:len(s)*2/3]), iotest.ErrReader(readErr))
		},
	}
	for bname, b := range bodies {
		for sname, src := range sources {
			if sname == "one byte" && len(b) > 4*ndjsonBufLen {
				continue // a million one-byte reads add nothing here
			}
			for _, k := range []int{1, 3, 4096} { // 4096: Registry.Ingest's batch
				b, src := b, src
				checkAgainstRef(t, bname+"/"+sname, func() io.Reader { return src(b) }, k)
			}
		}
	}
}

// TestNDJSONReaderErrorText pins two reference errors by text: a line
// past the limit and a read error, each numbered with the line it cut.
func TestNDJSONReaderErrorText(t *testing.T) {
	body := "{\"key\": 1}\n" + longLine(maxNDJSONLine+1) + "\n"
	_, err := drainBatches(newNDJSONReader(strings.NewReader(body)), 4096)
	if err == nil || err.Error() != "line 2: "+bufio.ErrTooLong.Error() {
		t.Fatalf("over-long line: error %v, want line 2: %v", err, bufio.ErrTooLong)
	}
	readErr := errors.New("connection reset")
	src := io.MultiReader(strings.NewReader("{\"key\": 1}\n{\"key\": 2}\n"), iotest.ErrReader(readErr))
	got, err := drainBatches(newNDJSONReader(src), 4096)
	if len(got) != 2 || !errors.Is(err, readErr) || err.Error() != "line 3: connection reset" {
		t.Fatalf("read error: %d requests, error %v; want 2 and line 3: connection reset", len(got), err)
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
