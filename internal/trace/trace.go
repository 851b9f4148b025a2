// Package trace defines the request model shared by every component:
// workload generators produce requests, cache simulators and stack
// models consume them, and codecs persist them.
//
// A request is (key, size, op). Keys are opaque 64-bit identifiers
// (string keys should be pre-hashed with hashing.String). Sizes are in
// bytes and only matter to the variable-object-size models; the
// fixed-size experiments in the paper normalize every object to 200
// bytes (§5.2).
package trace

import (
	"errors"
	"io"
)

// Op is the request operation type.
type Op uint8

// Operations. Get and Set are the standard cache operations the paper
// normalizes all traces to; Delete removes an object from the cache
// and the model stacks.
const (
	OpGet Op = iota
	OpSet
	OpDelete
)

// String returns the lowercase operation mnemonic.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDelete:
		return "delete"
	default:
		return "op?"
	}
}

// DefaultObjectSize is the uniform object size (bytes) the paper
// assigns when normalizing fixed-size workloads (§5.2).
const DefaultObjectSize = 200

// Request is one cache reference.
type Request struct {
	Key  uint64
	Size uint32
	Op   Op
}

// Reader streams requests. Next returns io.EOF after the final
// request.
type Reader interface {
	Next() (Request, error)
}

// Trace is an in-memory request sequence.
type Trace struct {
	Reqs []Request
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Reqs) }

// Append adds a request.
func (t *Trace) Append(r Request) { t.Reqs = append(t.Reqs, r) }

// Reader returns a fresh reader over the trace; multiple readers may
// iterate independently.
func (t *Trace) Reader() Reader { return &sliceReader{reqs: t.Reqs} }

type sliceReader struct {
	reqs []Request
	pos  int
}

func (r *sliceReader) Next() (Request, error) {
	if r.pos >= len(r.reqs) {
		return Request{}, io.EOF
	}
	req := r.reqs[r.pos]
	r.pos++
	return req, nil
}

// NextBatch copies up to len(dst) requests, implementing BatchReader.
func (r *sliceReader) NextBatch(dst []Request) (int, error) {
	if r.pos >= len(r.reqs) {
		return 0, io.EOF
	}
	n := copy(dst, r.reqs[r.pos:])
	r.pos += n
	return n, nil
}

// BatchReader is an optional fast path over Reader: NextBatch fills
// dst with up to len(dst) requests and returns how many were written.
// It returns 0, io.EOF once the stream is exhausted. High-throughput
// consumers (fleet.Registry.Ingest, model.ProcessAll) use it to
// amortize the per-request interface-call cost; krrserve's NDJSON
// reader implements it to parse straight into the caller's batch.
type BatchReader interface {
	Reader
	NextBatch(dst []Request) (int, error)
}

// ReadBatch fills dst from r, using the BatchReader fast path when r
// provides one and falling back to per-request Next calls otherwise.
// It returns the number of requests written; n == 0 with io.EOF marks
// the end of the stream. A short (non-zero) batch is not an EOF
// indicator — callers keep reading until 0, io.EOF.
func ReadBatch(r Reader, dst []Request) (int, error) {
	if br, ok := r.(BatchReader); ok {
		return br.NextBatch(dst)
	}
	for i := range dst {
		req, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) && i > 0 {
				return i, nil
			}
			return i, err
		}
		dst[i] = req
	}
	return len(dst), nil
}

// ReadAll drains a reader into an in-memory trace.
func ReadAll(r Reader) (*Trace, error) {
	t := &Trace{}
	for {
		req, err := r.Next()
		if errors.Is(err, io.EOF) {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Append(req)
	}
}

// Collect materializes up to n requests from r. It stops early at EOF.
func Collect(r Reader, n int) (*Trace, error) {
	t := &Trace{Reqs: make([]Request, 0, n)}
	for i := 0; i < n; i++ {
		req, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		t.Append(req)
	}
	return t, nil
}

// LimitReader returns a reader yielding at most n requests from r.
func LimitReader(r Reader, n int) Reader { return &limitReader{r: r, left: n} }

type limitReader struct {
	r    Reader
	left int
}

func (l *limitReader) Next() (Request, error) {
	if l.left <= 0 {
		return Request{}, io.EOF
	}
	l.left--
	return l.r.Next()
}

// FuncReader adapts a function to the Reader interface.
type FuncReader func() (Request, error)

// Next calls the function.
func (f FuncReader) Next() (Request, error) { return f() }

// Summary describes aggregate trace properties used to pick cache
// sizes for simulation sweeps.
type Summary struct {
	Requests        int
	DistinctObjects int
	// TotalBytes is the sum of request sizes over the whole trace.
	TotalBytes uint64
	// WSSBytes is the working-set size in bytes: the sum over distinct
	// objects of the size seen on their first request, matching the
	// paper's MSR convention of using the first-request block size.
	WSSBytes uint64
	// ColdMisses counts first-touch references (== DistinctObjects for
	// traces without deletes).
	ColdMisses int
}

// Summarize makes one pass over a reader and aggregates its Summary.
func Summarize(r Reader) (Summary, error) {
	var s Summary
	seen := make(map[uint64]struct{})
	for {
		req, err := r.Next()
		if errors.Is(err, io.EOF) {
			return s, nil
		}
		if err != nil {
			return s, err
		}
		s.Requests++
		s.TotalBytes += uint64(req.Size)
		if req.Op == OpDelete {
			delete(seen, req.Key)
			continue
		}
		if _, ok := seen[req.Key]; !ok {
			seen[req.Key] = struct{}{}
			s.DistinctObjects = max(s.DistinctObjects, len(seen))
			s.WSSBytes += uint64(req.Size)
			s.ColdMisses++
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
