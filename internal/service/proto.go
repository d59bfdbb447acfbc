package service

// The cosyd protocol: length-prefixed binary messages over TCP (the framing
// the sqldb wire protocol uses, netsrv.Codec), multiplexed. This is the one
// layer where many concurrent requests share a connection (the sqldb wire
// protocol below it is one request at a time per pooled connection): every
// request carries a nonzero ID, and the server executes requests concurrently
// and echoes the ID on the response. Cancellation is cooperative: ReqCancel
// names an in-flight ID, the target's context is canceled, and the target
// still answers exactly once so the reply stream stays balanced.

import (
	"errors"
	"io"

	"repro/internal/netsrv"
)

// ReqKind selects the operation of a service request.
type ReqKind int

// Service request kinds.
const (
	// ReqAnalyze evaluates one test run and returns the rendered report.
	ReqAnalyze ReqKind = iota
	// ReqCancel cancels the in-flight request named by CancelID.
	ReqCancel
	// ReqPing is a round-trip probe.
	ReqPing
	// ReqStats returns the admission-controller counters.
	ReqStats
)

// Request is a client message.
type Request struct {
	Kind ReqKind
	// ID tags the request; the response echoes it. Must be nonzero and
	// unique among the connection's in-flight requests.
	ID int64
	// CancelID names the target of a ReqCancel.
	CancelID int64
	// Tenant identifies the requesting tenant for admission control; empty
	// means the anonymous default tenant.
	Tenant string
	// NoPe selects the analyzed test run by processor count; 0 selects the
	// largest run.
	NoPe int
	// DeadlineMillis bounds the server-side work of a ReqAnalyze, measured
	// from receipt; 0 means no server-imposed deadline. Clients derive it
	// from their context so the server stops working when nobody is waiting,
	// even if the cancel message is lost.
	DeadlineMillis int64
}

// Response is a server message.
type Response struct {
	// ID echoes the request's ID.
	ID  int64
	Err string
	// Report is the rendered analysis report of a ReqAnalyze.
	Report string
	// Stats answers a ReqStats.
	Stats *AdmissionStats
}

// ErrCanceled is the error of a request stopped by cancellation or deadline
// on the server. Like ErrRejected it crosses the service wire as its text in
// Response.Err, and Client maps that text back to the sentinel, so errors.Is
// classifies outcomes on either side of the connection.
var ErrCanceled = errors.New("service: request canceled")

// responseErr turns a Response.Err back into an error, restoring the
// sentinels.
func responseErr(text string) error {
	switch text {
	case ErrCanceled.Error():
		return ErrCanceled
	case ErrRejected.Error():
		return ErrRejected
	}
	return errors.New(text)
}

// Codec frames requests and responses on a stream.
type Codec = netsrv.Codec[Request, Response]

// NewCodec wraps a bidirectional stream.
func NewCodec(rw io.ReadWriter) *Codec {
	return netsrv.NewCodec(rw,
		netsrv.Format[Request]{Append: appendRequest, Decode: decodeRequest},
		netsrv.Format[Response]{Append: appendResponse, Decode: decodeResponse})
}

// The messages' payloads: every field, in declaration order (DESIGN.md, "Wire
// format").

func appendRequest(b []byte, m *Request) []byte {
	b = netsrv.AppendVarint(b, int64(m.Kind))
	b = netsrv.AppendVarint(b, m.ID)
	b = netsrv.AppendVarint(b, m.CancelID)
	b = netsrv.AppendString(b, m.Tenant)
	b = netsrv.AppendVarint(b, int64(m.NoPe))
	return netsrv.AppendVarint(b, m.DeadlineMillis)
}

func decodeRequest(r *netsrv.Reader, m *Request) {
	m.Kind = ReqKind(r.Int())
	m.ID = r.Varint()
	m.CancelID = r.Varint()
	m.Tenant = r.String()
	m.NoPe = r.Int()
	m.DeadlineMillis = r.Varint()
}

func appendResponse(b []byte, m *Response) []byte {
	b = netsrv.AppendVarint(b, m.ID)
	b = netsrv.AppendString(b, m.Err)
	b = netsrv.AppendString(b, m.Report)
	b = netsrv.AppendBool(b, m.Stats != nil)
	if s := m.Stats; s != nil {
		b = netsrv.AppendVarint(b, s.Admitted)
		b = netsrv.AppendVarint(b, s.Queued)
		b = netsrv.AppendVarint(b, s.Shed)
		b = netsrv.AppendVarint(b, s.Rejected)
		b = netsrv.AppendVarint(b, int64(s.InFlight))
		b = netsrv.AppendVarint(b, int64(s.Waiting))
	}
	return b
}

func decodeResponse(r *netsrv.Reader, m *Response) {
	m.ID = r.Varint()
	m.Err = r.String()
	m.Report = r.String()
	if r.Bool() {
		m.Stats = &AdmissionStats{
			Admitted: r.Varint(),
			Queued:   r.Varint(),
			Shed:     r.Varint(),
			Rejected: r.Varint(),
			InFlight: r.Int(),
			Waiting:  r.Int(),
		}
	}
}
