package sqldb

// Columnar table storage. A table holds one typed vector per column — int64,
// float64, or string payloads plus a null bitmap — instead of a []Row of
// boxed Values, and it is the table's only copy of its data. Both execution
// engines read it in place: the vectorized operators (vecexec.go) read the
// typed slices batch-at-a-time, and the row interpreter binds a row as a
// position and reads one cell at a time (boundTable.value). Rows are written
// by Table.insert, Table.updateRows and Table.deleteRows.
//
// Storage is homogeneous by construction: Table.insert coerces every value to
// the declared column type before it is appended, so a colVec cell is either
// NULL (bit set in the bitmap) or exactly the column's type. That invariant
// is what lets the vectorized kernels dispatch per batch instead of per row.

// nullBitmap tracks NULL cells, one bit per row.
type nullBitmap []uint64

func (b nullBitmap) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b *nullBitmap) set(i int, null bool) {
	if null {
		(*b)[i>>6] |= 1 << (uint(i) & 63)
	} else {
		(*b)[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// grow extends the bitmap to cover n rows.
func (b *nullBitmap) grow(n int) {
	words := (n + 63) >> 6
	for len(*b) < words {
		*b = append(*b, 0)
	}
}

// colVec is the storage of one column: a typed payload vector and the null
// bitmap. Exactly one payload slice is in use, chosen by typ:
//
//	TInt, TBool → ints (booleans store 0/1, as Value does)
//	TFloat      → floats
//	TText       → strs
//
// NULL cells keep a zero payload with the null bit set.
type colVec struct {
	typ   ColType
	n     int
	nulls nullBitmap
	ints  []int64
	flts  []float64
	strs  []string
}

func newColVec(t ColType) *colVec { return &colVec{typ: t} }

// appendVal appends a value that has already been coerced to the column type.
func (c *colVec) appendVal(v Value) {
	i := c.n
	c.n++
	c.nulls.grow(c.n)
	c.nulls.set(i, v.IsNull())
	switch c.typ {
	case TInt, TBool:
		c.ints = append(c.ints, v.i)
	case TFloat:
		c.flts = append(c.flts, v.f)
	case TText:
		c.strs = append(c.strs, v.s)
	}
}

// value materializes cell i as a Value. It allocates nothing: string payloads
// share the stored backing array.
func (c *colVec) value(i int) Value {
	if c.nulls.get(i) {
		return Null
	}
	switch c.typ {
	case TInt:
		return Value{kind: kindInt, i: c.ints[i]}
	case TBool:
		return Value{kind: kindBool, i: c.ints[i]}
	case TFloat:
		return Value{kind: kindFloat, f: c.flts[i]}
	case TText:
		return Value{kind: kindText, s: c.strs[i]}
	}
	return Null
}

// setVal overwrites cell i with a value already coerced to the column type.
func (c *colVec) setVal(i int, v Value) {
	c.nulls.set(i, v.IsNull())
	switch c.typ {
	case TInt, TBool:
		c.ints[i] = v.i
	case TFloat:
		c.flts[i] = v.f
	case TText:
		c.strs[i] = v.s
	}
}

// compact drops the rows at drop, ascending and each listed once,
// preserving the order of the rest.
func (c *colVec) compact(drop []int32) {
	out := 0
	for i := 0; i < c.n; i++ {
		if len(drop) > 0 && int(drop[0]) == i {
			drop = drop[1:]
			continue
		}
		if out != i {
			c.nulls.set(out, c.nulls.get(i))
			switch c.typ {
			case TInt, TBool:
				c.ints[out] = c.ints[i]
			case TFloat:
				c.flts[out] = c.flts[i]
			case TText:
				c.strs[out] = c.strs[i]
			}
		}
		out++
	}
	for i := out; i < c.n; i++ {
		c.nulls.set(i, false) // scrub the tail so grown bitmaps stay clean
	}
	switch c.typ {
	case TInt, TBool:
		c.ints = c.ints[:out]
	case TFloat:
		c.flts = c.flts[:out]
	case TText:
		c.strs = c.strs[:out]
	}
	c.n = out
}
