package netsrv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// MaxFrame is the longest payload a frame may carry. A longer one is refused
// on both sides: the writer does not send it, the reader does not wait for
// it.
const MaxFrame = 1 << 26

// keepBuffer is the largest buffer a codec holds on to between frames; one
// outsized frame does not pin its memory for the life of the connection.
const keepBuffer = 1 << 20

// prefixLen is the room a frame's length prefix can take: MaxFrame fits a
// uvarint of this many bytes.
const prefixLen = binary.MaxVarintLen32

// Format is how one message type goes into and comes out of a frame's
// payload. Append writes m's fields behind b in the message's fixed order;
// Decode reads them back in that order from a Reader holding exactly one
// payload. Decode reports nothing itself: the Reader remembers the first
// failure, and the codec checks it — and that the payload was consumed to its
// last byte — when Decode returns. m is new for every frame; what Decode
// points it at may be memory a Format reuses from frame to frame, in which
// case the protocol that supplies the Format says how long a message is valid
// (wire.NewCodec does, for its requests).
type Format[T any] struct {
	Append func(b []byte, m *T) []byte
	Decode func(r *Reader, m *T)
}

// Codec frames messages on a stream, requests one way and responses the
// other: uvarint payload length, then the payload (DESIGN.md, "Wire format").
// One goroutine may write while another reads — the two directions share no
// state — but neither direction is safe for concurrent use by itself; callers
// that share a Codec serialize their writes (and their reads).
type Codec[Req, Resp any] struct {
	req  Format[Req]
	resp Format[Resp]
	frameWriter
	frameReader
}

// NewCodec wraps a bidirectional stream.
func NewCodec[Req, Resp any](rw io.ReadWriter, req Format[Req], resp Format[Resp]) *Codec[Req, Resp] {
	return &Codec[Req, Resp]{req: req, resp: resp, frameWriter: frameWriter{w: rw}, frameReader: frameReader{r: rw}}
}

// WriteRequest sends a request.
func (c *Codec[Req, Resp]) WriteRequest(m *Req) error {
	return c.writeFrame(c.req.Append(c.payloadBuffer(), m))
}

// ReadRequest receives a request.
func (c *Codec[Req, Resp]) ReadRequest() (*Req, error) {
	return readFrame(&c.frameReader, c.req.Decode)
}

// WriteResponse sends a response.
func (c *Codec[Req, Resp]) WriteResponse(m *Resp) error {
	return c.writeFrame(c.resp.Append(c.payloadBuffer(), m))
}

// ReadResponse receives a response.
func (c *Codec[Req, Resp]) ReadResponse() (*Resp, error) {
	return readFrame(&c.frameReader, c.resp.Decode)
}

// frameWriter is the writing direction: the stream and one reusable frame
// buffer.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

// payloadBuffer returns the frame buffer, emptied but for the room a length
// prefix can take, for a message to be appended to.
func (fw *frameWriter) payloadBuffer() []byte {
	var room [prefixLen]byte
	return append(fw.buf[:0], room[:]...)
}

// writeFrame sends the payload appended to payloadBuffer: it puts the length
// prefix right in front of it and hands the frame to the stream in one Write.
func (fw *frameWriter) writeFrame(b []byte) error {
	fw.buf = b
	if cap(b) > keepBuffer {
		fw.buf = nil
	}
	size := len(b) - prefixLen
	if size > MaxFrame {
		return fmt.Errorf("netsrv: frame of %d bytes exceeds the limit of %d", size, MaxFrame)
	}
	var prefix [prefixLen]byte
	n := binary.PutUvarint(prefix[:], uint64(size))
	frame := b[prefixLen-n:]
	copy(frame, prefix[:n])
	_, err := fw.w.Write(frame)
	return err
}

// frameReader is the reading direction: the stream and one reusable buffer,
// of which buf[start:end] has arrived and is not consumed yet.
type frameReader struct {
	r          io.Reader
	buf        []byte
	start, end int
}

// readFrame receives one frame and decodes its payload. A stream that ends
// between frames ends in io.EOF; one that ends inside a frame, in
// io.ErrUnexpectedEOF.
func readFrame[T any](fr *frameReader, decode func(*Reader, *T)) (*T, error) {
	payload, err := fr.nextPayload()
	if err != nil {
		return nil, err
	}
	r := Reader{b: payload}
	m := new(T)
	decode(&r, m)
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, fmt.Errorf("netsrv: bad frame: %w", r.err)
	}
	return m, nil
}

// nextPayload returns the next frame's payload, valid until the next call.
func (fr *frameReader) nextPayload() ([]byte, error) {
	if fr.start == fr.end {
		fr.start, fr.end = 0, 0
		if len(fr.buf) > keepBuffer {
			fr.buf = nil
		}
	}
	size, n := binary.Uvarint(fr.buf[fr.start:fr.end])
	for n == 0 {
		err := fr.fill()
		if err == io.EOF && fr.start < fr.end {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		size, n = binary.Uvarint(fr.buf[fr.start:fr.end])
	}
	if n < 0 || size > MaxFrame {
		return nil, fmt.Errorf("netsrv: bad frame: length exceeds the limit of %d", MaxFrame)
	}
	fr.start += n
	for fr.end-fr.start < int(size) {
		if err := fr.fill(); err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		} else if err != nil {
			return nil, err
		}
	}
	payload := fr.buf[fr.start : fr.start+int(size)]
	fr.start += int(size)
	return payload, nil
}

// fill reads more of the stream behind buf[:end]. It makes room by moving the
// unconsumed bytes to the front or, when the buffer is full of them, by
// doubling it — so the buffer grows with what has arrived, never with what a
// length prefix claims is coming.
func (fr *frameReader) fill() error {
	if fr.end == len(fr.buf) {
		if fr.start > 0 {
			fr.end = copy(fr.buf, fr.buf[fr.start:fr.end])
			fr.start = 0
		} else {
			grown := make([]byte, max(2*len(fr.buf), 4096))
			copy(grown, fr.buf)
			fr.buf = grown
		}
	}
	// A Reader may return 0, nil; one that keeps doing so is broken.
	for range 100 {
		n, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += n
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// AppendVarint appends a signed integer.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendCount appends an element count or a length.
func AppendCount(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	return append(AppendCount(b, len(s)), s...)
}

// AppendBool appends a boolean as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends a float as its 8 IEEE-754 bytes, little endian, so
// every bit pattern (NaN payloads, -0) survives.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// Reader decodes the fields of one payload in order. It never reads past the
// payload and never panics: the first field that is truncated or malformed
// sets the error, and every later read returns a zero value.
type Reader struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated field")

// Fail records err as the payload's decode error, unless one is already set.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.b = nil
	}
}

// Len is how many bytes of the payload are still unread.
func (r *Reader) Len() int { return len(r.b) }

// take consumes n bytes.
func (r *Reader) take(n int) []byte {
	if n > len(r.b) {
		r.Fail(errTruncated)
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// Varint reads a signed integer.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a signed integer that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail(errors.New("integer out of range"))
		return 0
	}
	return int(v)
}

// Count reads an element count (or a length in bytes) and checks it against
// what is left of the payload: each element takes at least elemSize bytes, so
// a count the remaining bytes cannot hold is an error — reported before the
// caller allocates anything for the elements.
func (r *Reader) Count(elemSize int) int {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	if v > uint64(len(r.b)/elemSize) {
		r.Fail(fmt.Errorf("count %d exceeds the %d bytes left in the frame", v, len(r.b)))
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Bytes reads a length-prefixed string without copying it: the result is a
// view of the payload, valid until the codec reads its next frame. It is for
// a decoder that looks the bytes up — in a table of strings it already holds
// — instead of keeping them.
func (r *Reader) Bytes() []byte { return r.take(r.Count(1)) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a boolean; any byte but 0 and 1 is an error.
func (r *Reader) Bool() bool {
	switch b := r.Byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("bad boolean byte %d", b))
		return false
	}
}

// Float64 reads a float's 8 bytes.
func (r *Reader) Float64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}
