package wire

// How Request and Response go into a frame's payload (DESIGN.md, "Wire
// format"): every field, in declaration order, with netsrv's primitives.
// Slices and maps are a count followed by their elements; a nil and an empty
// one are the same on the wire and decode to nil.
//
// A response decodes into memory made for it: its rows escape to the driver's
// callers. A request decodes into memory its codec keeps (requestDecoder) and
// is valid until the codec reads the next one.

import (
	"fmt"
	"slices"

	"repro/internal/netsrv"
	"repro/internal/sqldb"
)

// The byte a value opens with. A boolean's kind is its whole encoding.
const (
	valNull  = 0
	valInt   = 1 // varint
	valFloat = 2 // 8 IEEE-754 bytes
	valText  = 3 // length-prefixed bytes
	valFalse = 4
	valTrue  = 5
)

func appendValue(b []byte, v sqldb.Value) []byte {
	switch {
	case v.IsNull():
		return append(b, valNull)
	case v.IsInt():
		return netsrv.AppendVarint(append(b, valInt), v.Int())
	case v.IsNumeric():
		return netsrv.AppendFloat64(append(b, valFloat), v.Float())
	case v.IsText():
		return netsrv.AppendString(append(b, valText), v.Text())
	case v.Bool():
		return append(b, valTrue)
	default:
		return append(b, valFalse)
	}
}

func decodeValue(r *netsrv.Reader) sqldb.Value {
	switch kind := r.Byte(); kind {
	case valNull:
		return sqldb.Null
	case valInt:
		return sqldb.NewInt(r.Varint())
	case valFloat:
		return sqldb.NewFloat(r.Float64())
	case valText:
		return sqldb.NewText(r.String())
	case valFalse, valTrue:
		return sqldb.NewBool(kind == valTrue)
	default:
		r.Fail(fmt.Errorf("unknown value kind %d", kind))
		return sqldb.Null
	}
}

func appendValues(b []byte, vals []sqldb.Value) []byte {
	b = netsrv.AppendCount(b, len(vals))
	for _, v := range vals {
		b = appendValue(b, v)
	}
	return b
}

// decodeValues reads a value list into buf's storage, growing it when the
// list is longer; an empty list is nil.
func decodeValues(r *netsrv.Reader, buf []sqldb.Value) []sqldb.Value {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	vals := slices.Grow(buf[:0], n)[:n]
	for i := range vals {
		vals[i] = decodeValue(r)
	}
	return vals
}

func appendNamed(b []byte, named map[string]sqldb.Value) []byte {
	b = netsrv.AppendCount(b, len(named))
	for name, v := range named {
		b = appendValue(netsrv.AppendString(b, name), v)
	}
	return b
}

func appendStrings(b []byte, ss []string) []byte {
	b = netsrv.AppendCount(b, len(ss))
	for _, s := range ss {
		b = netsrv.AppendString(b, s)
	}
	return b
}

func decodeStrings(r *netsrv.Reader) []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.String()
	}
	return ss
}

func appendRows(b []byte, rows [][]sqldb.Value) []byte {
	b = netsrv.AppendCount(b, len(rows))
	for _, row := range rows {
		b = appendValues(b, row)
	}
	return b
}

// rowSlabs is the memory the rows of one response are cut from: one slab of
// values and one of row headers, made for that response alone, so what the
// driver's caller keeps is still only its own — in two allocations instead
// of two per result.
type rowSlabs struct {
	vals []sqldb.Value
	rows [][]sqldb.Value
}

// decodeRows reads a row list. lists is how many lists like it the response
// is expected to carry from here on, itself included (the items a batch reply
// has left; 1 otherwise): a slab is sized for all of them when the first row
// shows how wide they are. A later list that does not fit — items are not
// bound to be alike — gets a slab of its own, sized the same way. No slab is
// longer than the bytes left in the frame: a row takes at least one byte and
// so does a value, which keeps a hostile count as cheap as Count makes it.
func (s *rowSlabs) decodeRows(r *netsrv.Reader, lists int) [][]sqldb.Value {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	if n > len(s.rows) {
		s.rows = make([][]sqldb.Value, slabLen(1, n, lists, r.Len()))
	}
	rows := s.rows[:n:n]
	s.rows = s.rows[n:]
	for i := range rows {
		width := r.Count(1)
		if width == 0 {
			continue
		}
		if width > len(s.vals) {
			s.vals = make([]sqldb.Value, slabLen(width, n-i, lists, r.Len()))
		}
		rows[i] = s.vals[:width:width]
		s.vals = s.vals[width:]
		for j := range rows[i] {
			rows[i][j] = decodeValue(r)
		}
	}
	return rows
}

// slabLen is min(width*rows*lists, limit) for counts each of which is only
// known to be at most limit (the bytes left in a frame, up to 2^26). It clamps
// factor by factor: the plain product of three such counts can overflow.
func slabLen(width, rows, lists, limit int) int {
	return min(min(width*rows, limit)*lists, limit)
}

func appendRequest(b []byte, m *Request) []byte {
	b = netsrv.AppendVarint(b, int64(m.Kind))
	b = netsrv.AppendString(b, m.SQL)
	b = appendValues(b, m.Pos)
	b = appendNamed(b, m.Named)
	b = netsrv.AppendVarint(b, m.CursorID)
	b = netsrv.AppendVarint(b, int64(m.FetchN))
	b = netsrv.AppendVarint(b, m.StmtID)
	b = netsrv.AppendCount(b, len(m.Batch))
	for _, bind := range m.Batch {
		b = appendNamed(appendValues(b, bind.Pos), bind.Named)
	}
	return b
}

// requestDecoder is the memory one codec decodes its requests into. The
// kojakdb protocol serves one request at a time per connection, so by the time
// the server reads a request it is done with the one before, and the decoder
// hands every request the same storage: the Batch slice, each parameter set's
// value slice and map (cleared and refilled), and the parameter names
// (interned). A warm exchange therefore allocates per request, not per
// binding. What a request points at is valid until the codec reads the next
// one; whoever keeps part of a request longer copies it.
type requestDecoder struct {
	// top and scratch[i] are the storage behind a request's own parameter
	// set and behind batch[i]; they are kept apart from what the request
	// shows, in which an empty list or map is nil.
	top     BatchBinding
	batch   []BatchBinding
	scratch []BatchBinding
	// names interns parameter names: a connection sees the same few over and
	// over, and looking one up by its raw bytes allocates nothing.
	names map[string]string
}

// What a decoder holds on to is bounded, like the codec's frame buffers: a
// request beyond these limits (more bindings than the server accepts, a
// parameter set no statement of ours has) still decodes, into memory the
// decoder then lets go of.
const (
	keepBindings = MaxBatch // bindings of one request
	keepParams   = 64       // positional, or named, parameters of one set
	keepNames    = 256      // distinct parameter names
)

func (d *requestDecoder) decode(r *netsrv.Reader, m *Request) {
	m.Kind = RequestKind(r.Int())
	m.SQL = r.String()
	m.Pos, m.Named = d.params(r, &d.top)
	m.CursorID = r.Varint()
	m.FetchN = r.Int()
	m.StmtID = r.Varint()
	n := r.Count(2)
	if n == 0 {
		return
	}
	if n > len(d.batch) {
		d.batch = make([]BatchBinding, n)
		d.scratch = append(d.scratch, make([]BatchBinding, n-len(d.scratch))...)
	}
	m.Batch = d.batch[:n]
	for i := range m.Batch {
		m.Batch[i].Pos, m.Batch[i].Named = d.params(r, &d.scratch[i])
	}
	if n > keepBindings {
		d.batch, d.scratch = nil, nil
	}
}

// params reads one parameter set into s's storage.
func (d *requestDecoder) params(r *netsrv.Reader, s *BatchBinding) ([]sqldb.Value, map[string]sqldb.Value) {
	pos := decodeValues(r, s.Pos)
	if pos != nil && len(pos) <= keepParams {
		s.Pos = pos
	}
	n := r.Count(2)
	if n == 0 {
		return pos, nil
	}
	named := s.Named
	switch {
	case n > keepParams:
		named = make(map[string]sqldb.Value, n)
	case named == nil:
		named = make(map[string]sqldb.Value, n)
		s.Named = named
	default:
		clear(named)
	}
	for range n {
		name := d.name(r.Bytes())
		named[name] = decodeValue(r)
	}
	return pos, named
}

// name returns a parameter name read off the wire as a string, interned while
// the table has room.
func (d *requestDecoder) name(raw []byte) string {
	if s, ok := d.names[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if len(d.names) < keepNames {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		d.names[s] = s
	}
	return s
}

// A batch item's columns open with one of these bytes. The items of a batch
// come from one prepared statement, so all but the first (and the first after
// a failed binding) say sameColumns and ship no header of their own.
const (
	ownColumns  = 0 // the item's column names follow
	sameColumns = 1 // the item has the previous item's columns
)

func appendResponse(b []byte, m *Response) []byte {
	b = netsrv.AppendString(b, m.Err)
	b = appendStrings(b, m.Columns)
	b = appendRows(b, m.Rows)
	b = netsrv.AppendVarint(b, int64(m.Affected))
	b = netsrv.AppendVarint(b, m.CursorID)
	b = netsrv.AppendVarint(b, m.StmtID)
	b = netsrv.AppendBool(b, m.Done)
	b = netsrv.AppendCount(b, len(m.Items))
	for i := range m.Items {
		item := &m.Items[i]
		b = netsrv.AppendString(b, item.Err)
		if i > 0 && slices.Equal(item.Columns, m.Items[i-1].Columns) {
			b = append(b, sameColumns)
		} else {
			b = appendStrings(append(b, ownColumns), item.Columns)
		}
		b = appendRows(b, item.Rows)
		b = netsrv.AppendVarint(b, int64(item.Affected))
		b = netsrv.AppendBool(b, item.Cached)
	}
	b = netsrv.AppendVarint(b, int64(m.CacheHits))
	b = netsrv.AppendBool(b, m.Server != nil)
	if s := m.Server; s != nil {
		for _, counter := range s.counters() {
			b = netsrv.AppendVarint(b, *counter)
		}
	}
	return b
}

func decodeResponse(r *netsrv.Reader, m *Response) {
	var slabs rowSlabs
	m.Err = r.String()
	m.Columns = decodeStrings(r)
	m.Rows = slabs.decodeRows(r, 1)
	m.Affected = r.Int()
	m.CursorID = r.Varint()
	m.StmtID = r.Varint()
	m.Done = r.Bool()
	if n := r.Count(5); n > 0 {
		m.Items = make([]BatchItem, n)
		for i := range m.Items {
			item := &m.Items[i]
			item.Err = r.String()
			switch marker := r.Byte(); {
			case marker == ownColumns:
				item.Columns = decodeStrings(r)
			case marker == sameColumns && i > 0:
				item.Columns = m.Items[i-1].Columns
			default:
				r.Fail(fmt.Errorf("bad columns marker %d on batch item %d", marker, i))
			}
			item.Rows = slabs.decodeRows(r, n-i)
			item.Affected = r.Int()
			item.Cached = r.Bool()
		}
	}
	m.CacheHits = r.Int()
	if r.Bool() {
		m.Server = &ServerStats{}
		for _, counter := range m.Server.counters() {
			*counter = r.Varint()
		}
	}
}
