package netsrv

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/testutil"
)

// note is the smallest message: one string. The codec's own tests frame it;
// the real messages are tested where they live (internal/sqldb/wire,
// internal/service).
type note struct{ Text string }

var noteFormat = Format[note]{
	Append: func(b []byte, m *note) []byte { return AppendString(b, m.Text) },
	Decode: func(r *Reader, m *note) { m.Text = r.String() },
}

func noteCodec(rw io.ReadWriter) *Codec[note, note] { return NewCodec(rw, noteFormat, noteFormat) }

// readOnly is a stream for a codec that only decodes.
func readOnly(r io.Reader) io.ReadWriter {
	return struct {
		io.Reader
		io.Writer
	}{r, io.Discard}
}

// TestFramesRoundTrip: frames of every size class — empty, small, larger than
// the first buffer, larger than the buffer a codec keeps — cross one codec
// back to back, however the stream chops them up.
func TestFramesRoundTrip(t *testing.T) {
	texts := []string{"", "x", strings.Repeat("abc", 5000), "between", strings.Repeat("z", 2*keepBuffer), "after"}
	var stream bytes.Buffer
	w := noteCodec(&stream)
	for _, s := range texts {
		if err := w.WriteRequest(&note{s}); err != nil {
			t.Fatal(err)
		}
	}
	if w.frameWriter.buf != nil && cap(w.frameWriter.buf) > keepBuffer {
		t.Errorf("the writer kept a %d-byte buffer", cap(w.frameWriter.buf))
	}
	whole := stream.Bytes()
	readers := map[string]func() io.Reader{
		"all at once":   func() io.Reader { return bytes.NewReader(whole) },
		"byte by byte":  func() io.Reader { return iotest.OneByteReader(bytes.NewReader(whole)) },
		"data with EOF": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(whole)) },
		"in halves":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(whole)) },
	}
	for name, reader := range readers {
		t.Run(name, func(t *testing.T) {
			c := noteCodec(readOnly(reader()))
			for i, want := range texts {
				got, err := c.ReadRequest()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if got.Text != want {
					t.Fatalf("frame %d: %d bytes, want %d", i, len(got.Text), len(want))
				}
			}
			if _, err := c.ReadRequest(); err != io.EOF {
				t.Fatalf("after the last frame: %v, want io.EOF", err)
			}
			if len(c.frameReader.buf) > keepBuffer {
				t.Errorf("the reader kept a %d-byte buffer", len(c.frameReader.buf))
			}
		})
	}
}

// TestTornFrames: a stream that ends anywhere inside a frame — in its prefix
// or in its payload — ends in io.ErrUnexpectedEOF, after the whole frames
// before the tear have been delivered.
func TestTornFrames(t *testing.T) {
	var stream bytes.Buffer
	w := noteCodec(&stream)
	w.WriteRequest(&note{"first"})
	firstLen := stream.Len()
	w.WriteRequest(&note{strings.Repeat("second", 40)}) // a two-byte prefix
	whole := stream.Bytes()
	for cut := firstLen + 1; cut < len(whole); cut++ {
		c := noteCodec(readOnly(bytes.NewReader(whole[:cut])))
		if m, err := c.ReadRequest(); err != nil || m.Text != "first" {
			t.Fatalf("cut at %d: first frame: %v, %v", cut, m, err)
		}
		if _, err := c.ReadRequest(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestBadFrames: a payload the message does not consume to its last byte, one
// that ends inside a field, and a length prefix no uvarint encodes are decode
// errors.
func TestBadFrames(t *testing.T) {
	cases := map[string][]byte{
		"trailing byte":           {3, 1, 'x', 0},
		"truncated field":         {0},
		"length beyond the frame": {2, 5, 'x'},
		"overlong prefix":         bytes.Repeat([]byte{0xff}, 11),
	}
	for name, stream := range cases {
		_, err := noteCodec(readOnly(bytes.NewReader(stream))).ReadRequest()
		if err == nil || !strings.Contains(err.Error(), "bad frame") {
			t.Errorf("%s: err = %v, want a bad-frame error", name, err)
		}
	}
}

// TestHostilePrefix: a length prefix is a claim, not a budget. One past the
// limit is refused outright; one within the limit with next to nothing behind
// it ends in io.ErrUnexpectedEOF; and neither makes the reader allocate for
// what was claimed — the buffer grows with what arrives. (A reader that
// allocated the claimed length up front would fail the second and third
// cases by 64 MiB.)
func TestHostilePrefix(t *testing.T) {
	cases := []struct {
		name    string
		claim   int
		behind  int
		wantErr func(error) bool
	}{
		{"1 GiB claimed, 4 bytes behind", 1 << 30, 4, func(err error) bool { return strings.Contains(err.Error(), "exceeds the limit") }},
		{"the limit claimed, 4 bytes behind", MaxFrame, 4, func(err error) bool { return err == io.ErrUnexpectedEOF }},
		{"the limit claimed, 100 KB behind", MaxFrame, 100_000, func(err error) bool { return err == io.ErrUnexpectedEOF }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream := append(AppendCount(nil, tc.claim), make([]byte, tc.behind)...)
			c := noteCodec(readOnly(bytes.NewReader(stream)))
			var err error
			got := testutil.AllocatedBy(func() { _, err = c.ReadRequest() })
			if err == nil || !tc.wantErr(err) {
				t.Fatalf("err = %v", err)
			}
			if got > 1<<20 {
				t.Fatalf("the reader allocated %d bytes", got)
			}
		})
	}
}

// TestOversizedFrameIsNotSent: the writer refuses what the reader would.
func TestOversizedFrameIsNotSent(t *testing.T) {
	var stream bytes.Buffer
	c := noteCodec(&stream)
	c.resp.Append = func(b []byte, _ *note) []byte { return append(b, make([]byte, MaxFrame+1)...) }
	if err := c.WriteResponse(&note{}); err == nil {
		t.Fatal("a frame past the limit was written")
	}
	if stream.Len() != 0 {
		t.Fatalf("%d bytes of the refused frame reached the stream", stream.Len())
	}
	if err := c.WriteRequest(&note{"still usable"}); err != nil {
		t.Fatal(err)
	}
	if m, err := c.ReadRequest(); err != nil || m.Text != "still usable" {
		t.Fatalf("after the refusal: %v, %v", m, err)
	}
}

// TestOneWriterOneReader: one goroutine writes requests on a codec while
// another reads responses from it, as service.Client and service.Server use
// theirs. Run under -race: the two directions must share no state.
func TestOneWriterOneReader(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	go func() { // the peer echoes every request as a response
		defer far.Close()
		peer := noteCodec(far)
		for {
			m, err := peer.ReadRequest()
			if err != nil {
				return
			}
			if peer.WriteResponse(m) != nil {
				return
			}
		}
	}()
	c := noteCodec(near)
	const n = 500
	wrote := make(chan error, 1)
	go func() {
		for i := range n {
			if err := c.WriteRequest(&note{strings.Repeat("m", i)}); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- nil
	}()
	for i := range n {
		m, err := c.ReadResponse()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if len(m.Text) != i {
			t.Fatalf("response %d carries %d bytes", i, len(m.Text))
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}

// TestStreamErrorsPassThrough: an error of the stream itself reaches the
// caller as it is, so netsrv.Hangup can tell a closed socket from a fault.
func TestStreamErrorsPassThrough(t *testing.T) {
	near, far := net.Pipe()
	far.Close()
	near.Close()
	_, err := noteCodec(near).ReadRequest()
	if !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("err = %v, want the pipe's own error", err)
	}
}
