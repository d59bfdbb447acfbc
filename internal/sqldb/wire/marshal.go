package wire

// How Request and Response go into a frame's payload (DESIGN.md, "Wire
// format"): every field, in declaration order, with netsrv's primitives.
// Slices and maps are a count followed by their elements; a nil and an empty
// one are the same on the wire and decode to nil.

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

func decodeValues(r *netsrv.Reader) []sqldb.Value {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	vals := make([]sqldb.Value, n)
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

func decodeNamed(r *netsrv.Reader) map[string]sqldb.Value {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	named := make(map[string]sqldb.Value, n)
	for range n {
		name := r.String()
		named[name] = decodeValue(r)
	}
	return named
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

func decodeRows(r *netsrv.Reader) [][]sqldb.Value {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	rows := make([][]sqldb.Value, n)
	for i := range rows {
		rows[i] = decodeValues(r)
	}
	return rows
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

func decodeRequest(r *netsrv.Reader, m *Request) {
	m.Kind = RequestKind(r.Int())
	m.SQL = r.String()
	m.Pos = decodeValues(r)
	m.Named = decodeNamed(r)
	m.CursorID = r.Varint()
	m.FetchN = r.Int()
	m.StmtID = r.Varint()
	if n := r.Count(2); n > 0 {
		m.Batch = make([]BatchBinding, n)
		for i := range m.Batch {
			m.Batch[i] = BatchBinding{Pos: decodeValues(r), Named: decodeNamed(r)}
		}
	}
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
	m.Err = r.String()
	m.Columns = decodeStrings(r)
	m.Rows = decodeRows(r)
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
			item.Rows = decodeRows(r)
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
