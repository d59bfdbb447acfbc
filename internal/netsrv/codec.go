package netsrv

import (
	"encoding/gob"
	"io"
)

// Codec frames gob messages on a stream: requests one way, responses the
// other. A gob stream is not safe for concurrent use in either direction;
// callers that share a Codec serialize their writes (and their reads).
type Codec[Req, Resp any] struct {
	enc *gob.Encoder
	dec *gob.Decoder
}

// NewCodec wraps a bidirectional stream.
func NewCodec[Req, Resp any](rw io.ReadWriter) *Codec[Req, Resp] {
	return &Codec[Req, Resp]{enc: gob.NewEncoder(rw), dec: gob.NewDecoder(rw)}
}

// WriteRequest sends a request.
func (c *Codec[Req, Resp]) WriteRequest(r *Req) error { return c.enc.Encode(r) }

// ReadRequest receives a request.
func (c *Codec[Req, Resp]) ReadRequest() (*Req, error) {
	r := new(Req)
	if err := c.dec.Decode(r); err != nil {
		return nil, err
	}
	return r, nil
}

// WriteResponse sends a response.
func (c *Codec[Req, Resp]) WriteResponse(r *Resp) error { return c.enc.Encode(r) }

// ReadResponse receives a response.
func (c *Codec[Req, Resp]) ReadResponse() (*Resp, error) {
	r := new(Resp)
	if err := c.dec.Decode(r); err != nil {
		return nil, err
	}
	return r, nil
}
