package mrc

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// The fixed parts of a curve document, in encoding/json's compact
// form of curveJSON.
const (
	jsonSizes = `{"sizes":`
	jsonMiss  = `,"miss":`
)

func jsonTail(interp Interp) string {
	return `,"interp":"` + interpName(interp) + `"}` + "\n"
}

// jsonChunk is the size at which jsonWriter hands its buffer to the
// underlying writer.
const jsonChunk = 16 << 10

var jsonBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, jsonChunk+64)
	return &b
}}

// jsonWriter streams a curve document in the exact bytes
// json.NewEncoder(w).Encode(curve) writes, from a pooled chunk buffer
// instead of a marshaled copy of the whole document.
type jsonWriter struct {
	w   io.Writer
	buf *[]byte
	err error
}

func newJSONWriter(w io.Writer) *jsonWriter {
	return &jsonWriter{w: w, buf: jsonBufs.Get().(*[]byte)}
}

// spill writes the buffer out once it reaches jsonChunk. After a write
// error the buffer is discarded and close reports the error.
func (j *jsonWriter) spill() {
	if len(*j.buf) < jsonChunk {
		return
	}
	if j.err == nil {
		_, j.err = j.w.Write(*j.buf)
	}
	*j.buf = (*j.buf)[:0]
}

func (j *jsonWriter) raw(s string) {
	*j.buf = append(*j.buf, s...)
	j.spill()
}

func (j *jsonWriter) uint(v uint64, first bool) {
	if !first {
		*j.buf = append(*j.buf, ',')
	}
	*j.buf = strconv.AppendUint(*j.buf, v, 10)
	j.spill()
}

func (j *jsonWriter) float(f float64, first bool) {
	if !first {
		*j.buf = append(*j.buf, ',')
	}
	*j.buf = appendJSONFloat(*j.buf, f)
	j.spill()
}

// close writes what is buffered, returns the buffer to the pool and
// reports the first write error.
func (j *jsonWriter) close() error {
	if j.err == nil && len(*j.buf) > 0 {
		_, j.err = j.w.Write(*j.buf)
	}
	*j.buf = (*j.buf)[:0]
	jsonBufs.Put(j.buf)
	j.buf = nil
	return j.err
}

// appendJSONFloat formats f as encoding/json does: the shortest 'f'
// form, or 'e' form when |f| < 1e-6 or |f| >= 1e21, with a two-digit
// negative exponent like e-07 shortened to e-7.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// WriteJSON emits the curve as one JSON document followed by a
// newline, byte-identical to json.NewEncoder(w).Encode(c). It streams
// from a small pooled buffer rather than marshaling the document.
func (c *Curve) WriteJSON(w io.Writer) error {
	if c == nil {
		_, err := io.WriteString(w, "null\n")
		return err
	}
	for _, m := range c.Miss {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("mrc: miss ratio %v has no JSON form", m)
		}
	}
	jw := newJSONWriter(w)
	jw.raw(jsonSizes)
	if c.Sizes == nil {
		jw.raw("null")
	} else {
		jw.raw("[")
		for i, s := range c.Sizes {
			jw.uint(s, i == 0)
		}
		jw.raw("]")
	}
	jw.raw(jsonMiss)
	if c.Miss == nil {
		jw.raw("null")
	} else {
		jw.raw("[")
		for i, m := range c.Miss {
			jw.float(m, i == 0)
		}
		jw.raw("]")
	}
	jw.raw(jsonTail(c.Interp))
	return jw.close()
}
