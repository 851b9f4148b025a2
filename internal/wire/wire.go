// Package wire implements the batched binary ingest protocol that
// turns krrserve's model hosting into a servable data plane. The
// HTTP/NDJSON path decodes a JSON object per request; this protocol
// moves fixed-width records in length-prefixed frames over raw TCP and
// decodes a whole frame with one copy into a pooled []trace.Request —
// zero per-request allocations, and on little-endian machines zero
// per-record byte shuffling (the wire record layout matches the
// in-memory trace.Request layout, so a frame is read straight off the
// socket into the batch's backing array).
//
// # Stream layout
//
// A connection carries one header followed by frames until the client
// closes its write side:
//
//	header  magic   [4]byte  "KRW1"
//	        version uint8    1
//	        tlen    uint8    tenant id length (1..255)
//	        tenant  [tlen]byte
//	frame   count   uint32   records in the frame (LE, <= MaxFrameRecords)
//	        records count × { key uint64 LE, size uint32 LE, op uint8, pad [3]byte }
//
// The count prefix is the frame's length prefix: the payload is
// exactly count × RecordSize bytes. Bounding count before any
// allocation means a hostile length prefix can never drive an
// oversized allocation — the decoder errors out instead.
//
// # Acks and backpressure
//
// The server writes one status byte per frame, in frame order:
// StatusOK when the frame was accepted into the connection's bounded
// queue, StatusOverloaded when the queue was full and the frame was
// dropped (read and discarded, counted, never buffered), StatusBad
// before closing on a malformed frame. Load shedding is therefore
// explicit and deterministic: memory per connection is capped at the
// queue depth × frame size plus a 256 KiB read buffer and a 4 KiB ack
// buffer (1.25 MiB at the default 16 × 64 KiB frames), drops are
// visible to both sides, and a client that wants lossless delivery
// throttles on the OK ack stream instead of relying on unbounded
// server buffering. The server recycles batches, read buffers and ack
// buffers across connections.
//
// StatusOK admits a frame; it is ingested later. If the sink fails,
// the server discards the frames still queued and, after draining,
// writes one trailing StatusBad, so a clean end of the ack stream
// means every acked frame was ingested.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"unsafe"

	"krr/internal/trace"
)

// Magic opens every connection.
var Magic = [4]byte{'K', 'R', 'W', '1'}

// Version is the protocol version this package speaks.
const Version = 1

// RecordSize is the fixed wire size of one request record.
const RecordSize = 16

// MaxFrameRecords caps the count prefix of a single frame: 64Ki
// records = 1 MiB of payload. Anything larger is a protocol error,
// rejected before any buffer is sized from the untrusted count.
const MaxFrameRecords = 1 << 16

// MaxTenantLen caps the tenant id (the header length field is a byte).
const MaxTenantLen = 255

// Frame status bytes, one per frame, written in frame order.
const (
	// StatusOK: the frame was accepted into the ingest queue.
	StatusOK byte = 0
	// StatusOverloaded: the bounded queue was full; the frame was
	// discarded and counted. Later frames may still be accepted.
	StatusOverloaded byte = 1
	// StatusBad: the frame (or stream) was malformed, or the sink
	// failed; the server closes the connection after sending it.
	StatusBad byte = 0xff
)

// ErrBadFrame reports a malformed wire stream.
var ErrBadFrame = errors.New("wire: bad frame")

// ErrOverloaded reports frames shed by the server's bounded queue; the
// client surfaces it once per connection in Stats form rather than per
// frame.
var ErrOverloaded = errors.New("wire: server overloaded, frames dropped")

// headerSize is the fixed prefix of the connection header.
const headerSize = 4 + 1 + 1

// zeroCopy reports whether trace.Request's in-memory layout matches
// the wire record layout byte for byte — the field offsets line up and
// the machine is little-endian — so frames can be memcpy'd (indeed
// read directly off the socket) into []trace.Request. On any platform
// where this fails the codec falls back to per-record field decoding;
// both paths are exercised by tests regardless of the host.
var zeroCopy = func() bool {
	var r trace.Request
	if unsafe.Sizeof(r) != RecordSize ||
		unsafe.Offsetof(r.Key) != 0 ||
		unsafe.Offsetof(r.Size) != 8 ||
		unsafe.Offsetof(r.Op) != 12 {
		return false
	}
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02 // little-endian host
}()

// reqBytes views a request slice as its backing bytes. Only called
// when zeroCopy is true.
func reqBytes(reqs []trace.Request) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&reqs[0])), len(reqs)*RecordSize)
}

// WriteHeader writes the connection header for a tenant.
func WriteHeader(w io.Writer, tenant string) error {
	if tenant == "" || len(tenant) > MaxTenantLen {
		return fmt.Errorf("%w: tenant id length %d out of [1, %d]", ErrBadFrame, len(tenant), MaxTenantLen)
	}
	var hdr [headerSize]byte
	copy(hdr[:4], Magic[:])
	hdr[4] = Version
	hdr[5] = byte(len(tenant))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, tenant)
	return err
}

// ReadHeader validates the connection header and returns the tenant
// id.
func ReadHeader(r io.Reader) (string, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", fmt.Errorf("%w: short header: %v", ErrBadFrame, err)
	}
	if [4]byte(hdr[:4]) != Magic {
		return "", fmt.Errorf("%w: magic %q", ErrBadFrame, hdr[:4])
	}
	if hdr[4] != Version {
		return "", fmt.Errorf("%w: version %d (want %d)", ErrBadFrame, hdr[4], Version)
	}
	tlen := int(hdr[5])
	if tlen == 0 {
		return "", fmt.Errorf("%w: empty tenant id", ErrBadFrame)
	}
	tenant := make([]byte, tlen)
	if _, err := io.ReadFull(r, tenant); err != nil {
		return "", fmt.Errorf("%w: short tenant id: %v", ErrBadFrame, err)
	}
	return string(tenant), nil
}

// AppendFrame appends one encoded frame carrying reqs to dst and
// returns the extended slice. Callers reuse dst across frames to keep
// encoding allocation-free. Panics if len(reqs) > MaxFrameRecords
// (a programming error — split batches first).
func AppendFrame(dst []byte, reqs []trace.Request) []byte {
	if len(reqs) > MaxFrameRecords {
		panic("wire: frame larger than MaxFrameRecords")
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(reqs)))
	for i := range reqs {
		r := &reqs[i]
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		dst = binary.LittleEndian.AppendUint32(dst, r.Size)
		dst = append(dst, byte(r.Op), 0, 0, 0)
	}
	return dst
}

// BatchPool recycles frame-sized []trace.Request buffers so steady-
// state decoding allocates nothing. It is a mutex-guarded free list
// rather than a sync.Pool: Put-ing a slice into a sync.Pool boxes the
// slice header (one heap allocation per frame), while pushing onto a
// preallocated list is free. The list is bounded, so a burst of large
// frames cannot turn the pool into a leak. The zero value is ready to
// use; one pool may serve many connections.
type BatchPool struct {
	mu   sync.Mutex
	free [][]trace.Request
}

// maxPooledBatches bounds the free list; with MaxFrameRecords-sized
// buffers this caps pool memory at 64 MiB in the absolute worst case
// (typical frames are 64 KiB).
const maxPooledBatches = 64

// Get returns a zero-length batch with capacity at least n.
func (bp *BatchPool) Get(n int) []trace.Request {
	bp.mu.Lock()
	if last := len(bp.free) - 1; last >= 0 {
		b := bp.free[last]
		bp.free[last] = nil
		bp.free = bp.free[:last]
		bp.mu.Unlock()
		if cap(b) >= n {
			return b[:0]
		}
		// Undersized leftover from a smaller-frame era: let it go and
		// size up. Uniform frame streams never hit this branch twice.
		return make([]trace.Request, 0, n)
	}
	bp.mu.Unlock()
	return make([]trace.Request, 0, n)
}

// Put recycles a batch.
func (bp *BatchPool) Put(b []trace.Request) {
	if cap(b) == 0 {
		return
	}
	bp.mu.Lock()
	if len(bp.free) < maxPooledBatches {
		if bp.free == nil {
			bp.free = make([][]trace.Request, 0, maxPooledBatches)
		}
		bp.free = append(bp.free, b[:0])
	}
	bp.mu.Unlock()
}

// Decoder reads frames from one connection's stream. It owns no
// buffers beyond a scratch for the non-zero-copy fallback; frame
// batches come from the shared pool.
type Decoder struct {
	br      *bufio.Reader
	pool    *BatchPool
	scratch []byte
	// forceFallback disables the zero-copy path (tests pin both paths
	// on every platform).
	forceFallback bool
}

// NewDecoder wraps a buffered reader. pool may be shared across
// connections; nil means an internal private pool.
func NewDecoder(br *bufio.Reader, pool *BatchPool) *Decoder {
	if pool == nil {
		pool = &BatchPool{}
	}
	return &Decoder{br: br, pool: pool}
}

// NextCount reads and bounds-checks the next frame's record count.
// io.EOF (clean, at a frame boundary) marks the end of the stream; any
// truncation inside the prefix is ErrBadFrame.
func (d *Decoder) NextCount() (int, error) {
	// Peek+Discard instead of io.ReadFull into a local: a stack array
	// passed through the io.Reader interface escapes, and that one
	// 4-byte heap allocation per frame is the difference between an
	// allocation-free hot path and not.
	pfx, err := d.br.Peek(4)
	if err != nil {
		if errors.Is(err, io.EOF) && len(pfx) == 0 {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("%w: truncated count prefix: %v", ErrBadFrame, err)
	}
	n := binary.LittleEndian.Uint32(pfx)
	d.br.Discard(4)
	if n > MaxFrameRecords {
		return 0, fmt.Errorf("%w: frame count %d exceeds max %d", ErrBadFrame, n, MaxFrameRecords)
	}
	return int(n), nil
}

// ReadBatch reads the payload of a frame whose count NextCount just
// returned, decoded into a pooled batch. The caller must return the
// batch to the pool (Recycle) once consumed. On little-endian hosts
// the payload is read directly into the batch's backing array — the
// "decode" is the socket read itself.
func (d *Decoder) ReadBatch(n int) ([]trace.Request, error) {
	batch := d.pool.Get(n)[:n]
	if n == 0 {
		return batch, nil
	}
	if zeroCopy && !d.forceFallback {
		if _, err := io.ReadFull(d.br, reqBytes(batch)); err != nil {
			d.pool.Put(batch)
			return nil, fmt.Errorf("%w: truncated frame payload: %v", ErrBadFrame, err)
		}
		return batch, nil
	}
	need := n * RecordSize
	if cap(d.scratch) < need {
		d.scratch = make([]byte, need)
	}
	buf := d.scratch[:need]
	if _, err := io.ReadFull(d.br, buf); err != nil {
		d.pool.Put(batch)
		return nil, fmt.Errorf("%w: truncated frame payload: %v", ErrBadFrame, err)
	}
	for i := range batch {
		rec := buf[i*RecordSize:]
		batch[i] = trace.Request{
			Key:  binary.LittleEndian.Uint64(rec[0:8]),
			Size: binary.LittleEndian.Uint32(rec[8:12]),
			Op:   trace.Op(rec[12]),
		}
	}
	return batch, nil
}

// Recycle returns a batch obtained from ReadBatch to the pool.
func (d *Decoder) Recycle(b []trace.Request) { d.pool.Put(b) }

// Discard consumes and drops the payload of a frame whose count
// NextCount just returned — the overload shedding path. No batch is
// allocated or pulled from the pool.
func (d *Decoder) Discard(n int) error {
	if _, err := d.br.Discard(n * RecordSize); err != nil {
		return fmt.Errorf("%w: truncated frame payload: %v", ErrBadFrame, err)
	}
	return nil
}
