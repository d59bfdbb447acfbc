package sqldb

import "math"

// hashIndex is the hash index over one column: value → row positions, in
// storage order. It is keyed by the column's type, so building, maintaining
// and probing it never formats a key string: INTEGER and BOOLEAN columns key
// by their int64 payload, TEXT by the stored string, REAL by the integer an
// integral value equals and by its bit pattern otherwise. NULL cells are kept
// apart in nulls.
//
// Key equivalence is that of Value.Key, which grouping still uses: a probe
// finds a cell exactly when their Key strings are equal. An integral REAL
// probes an INTEGER column as that integer (and an INTEGER probes a REAL
// column's integral cells), every NaN equals every NaN, and a probe of a kind
// the column cannot hold (TEXT or BOOLEAN against INTEGER, INTEGER against
// BOOLEAN, …) finds nothing rather than raising.
//
// An INTEGER or BOOLEAN column whose keys lie close together — object ids
// drawn from one counter — is looked up by array offset instead (dense):
// ints is nil then. It spills to the map when an insert would break the
// layout (see denseIndex.add).
type hashIndex struct {
	typ   ColType
	dense denseIndex     // TInt, TBool while ints is nil
	ints  posMap[int64]  // TInt, TBool once spilled; TFloat cells with an integral value
	bits  posMap[uint64] // TFloat cells with a non-integral value
	strs  posMap[string] // TText
	nulls []int32
}

// posMap maps a key to the positions of the rows holding it, ascending.
type posMap[K comparable] map[K][]int32

func (m posMap[K]) add(k K, pos int) { m[k] = append(m[k], int32(pos)) }

// denseFactor bounds a dense layout's key span: at most this many offsets
// per distinct key, so the offsets cost at most 16 bytes per key — less
// than one map entry.
const denseFactor = 4

// denseIndex is the layout of an INTEGER or BOOLEAN index whose keys are
// dense, CSR style: key k's positions are pos[off[k-lo]:off[k-lo+1]],
// ascending. span is len(off)-1, the keys lo … lo+span-1 it covers (0 when
// empty); keys counts those some row holds. It holds no pointer but its two
// arrays, whatever the number of keys.
type denseIndex struct {
	lo   int64
	span uint64
	keys int
	off  []int32
	pos  []int32
}

func (d *denseIndex) get(k int64) []int32 {
	if i := uint64(k) - uint64(d.lo); i < d.span {
		a, b := d.off[i], d.off[i+1]
		return d.pos[a:b:b]
	}
	return nil
}

// denseSpan reports whether n distinct keys over the span lo..hi make a dense
// layout.
func denseSpan(lo, hi int64, n int) bool {
	return uint64(hi)-uint64(lo) < denseFactor*uint64(n)
}

// add appends a row holding k at pos, the highest position yet. It keeps
// the layout only for a key at or past the highest one that stays dense;
// false asks the caller to spill.
func (d *denseIndex) add(k int64, pos int) bool {
	if d.span == 0 {
		d.lo, d.span, d.keys = k, 1, 1
		d.off = append(d.off[:0], 0, 1)
		d.pos = append(d.pos[:0], int32(pos))
		return true
	}
	hi := d.lo + int64(d.span) - 1
	switch {
	case k == hi:
	case k > hi && denseSpan(d.lo, k, d.keys+1):
		for ; hi < k; hi++ {
			d.off = append(d.off, int32(len(d.pos)))
		}
		d.span, d.keys = uint64(k-d.lo)+1, d.keys+1
	default:
		return false
	}
	d.pos = append(d.pos, int32(pos))
	d.off[d.span] = int32(len(d.pos))
	return true
}

// buildDense lays the non-NULL cells of an INTEGER or BOOLEAN column of n
// rows out densely — one pass for the span, one counting the keys' cells,
// one filling pos — or reports that its keys are not dense. Nothing is
// allocated per key.
func buildDense(cv *colVec, n int) (d denseIndex, ok bool) {
	cells, lo, hi := 0, int64(math.MaxInt64), int64(math.MinInt64)
	for p := 0; p < n; p++ {
		if !cv.nulls.get(p) {
			k := cv.ints[p]
			lo, hi, cells = min(lo, k), max(hi, k), cells+1
		}
	}
	if cells == 0 {
		return d, true
	}
	if !denseSpan(lo, hi, cells) {
		return d, false
	}
	d.lo, d.span = lo, uint64(hi-lo)+1
	d.off = make([]int32, d.span+1)
	for p := 0; p < n; p++ {
		if !cv.nulls.get(p) {
			d.off[cv.ints[p]-lo+1]++
		}
	}
	for i := range d.span {
		if d.off[i+1] > 0 {
			d.keys++
		}
		d.off[i+1] += d.off[i]
	}
	if !denseSpan(lo, hi, d.keys) {
		return denseIndex{}, false
	}
	// Fill through off[i] as key i's cursor, which ends at key i+1's start;
	// the shift then restores the starts.
	d.pos = make([]int32, cells)
	for p := 0; p < n; p++ {
		if !cv.nulls.get(p) {
			i := cv.ints[p] - lo
			d.pos[d.off[i]] = int32(p)
			d.off[i]++
		}
	}
	copy(d.off[1:], d.off[:d.span])
	d.off[0] = 0
	return d, true
}

// spill moves a dense index to the map, each key's positions aliasing pos
// at full capacity, so an append to one key copies that key alone.
func (ix *hashIndex) spill() {
	d := &ix.dense
	ix.ints = make(posMap[int64], d.keys)
	for i := range d.span {
		if a, b := d.off[i], d.off[i+1]; a < b {
			ix.ints[d.lo+int64(i)] = d.pos[a:b:b]
		}
	}
	ix.dense = denseIndex{}
}

func newHashIndex(typ ColType) *hashIndex {
	ix := &hashIndex{typ: typ}
	switch typ {
	case TText:
		ix.strs = make(posMap[string])
	case TFloat:
		ix.ints = make(posMap[int64])
		ix.bits = make(posMap[uint64])
	}
	return ix
}

// buildHashIndex indexes the first n cells of cv, densely where the keys
// allow.
func buildHashIndex(cv *colVec, n int) *hashIndex {
	ix := newHashIndex(cv.typ)
	if cv.typ == TInt || cv.typ == TBool {
		var ok bool
		if ix.dense, ok = buildDense(cv, n); ok {
			for p := 0; p < n; p++ {
				if cv.nulls.get(p) {
					ix.nulls = append(ix.nulls, int32(p))
				}
			}
			return ix
		}
		ix.ints = make(posMap[int64])
	}
	for p := 0; p < n; p++ {
		ix.add(cv.value(p), p)
	}
	return ix
}

// floatKey splits a REAL into the two key spaces of Value.Key: the integer an
// integral finite value equals ('i' keys), or a canonical bit pattern ('f'
// keys; one pattern for every NaN, as their Key strings are equal).
func floatKey(f float64) (i int64, integral bool, bits uint64) {
	if f == math.Trunc(f) && !math.IsInf(f, 0) {
		return int64(f), true, 0
	}
	if f != f {
		return 0, false, math.Float64bits(math.NaN())
	}
	return 0, false, math.Float64bits(f)
}

// intKey returns the positions of the cells holding k, a TInt, TBool or
// TFloat column's integer key.
func (ix *hashIndex) intKey(k int64) []int32 {
	if ix.ints == nil {
		return ix.dense.get(k)
	}
	return ix.ints[k]
}

// get returns the positions of the cells whose Key equals v's, aliasing the
// index (callers must not modify the slice).
func (ix *hashIndex) get(v Value) []int32 {
	switch v.kind {
	case kindNull:
		return ix.nulls
	case kindInt:
		if ix.typ == TInt || ix.typ == TFloat {
			return ix.intKey(v.i)
		}
	case kindFloat:
		i, integral, bits := floatKey(v.f)
		switch {
		case integral && (ix.typ == TInt || ix.typ == TFloat):
			return ix.intKey(i)
		case !integral && ix.typ == TFloat:
			return ix.bits[bits]
		}
	case kindText:
		if ix.typ == TText {
			return ix.strs[v.s]
		}
	case kindBool:
		if ix.typ == TBool {
			return ix.intKey(v.i)
		}
	}
	return nil
}

// add records that the cell at pos, past every position indexed yet, holds
// v, which is NULL or already coerced to the column's type.
func (ix *hashIndex) add(v Value, pos int) {
	switch {
	case v.kind == kindNull:
		ix.nulls = append(ix.nulls, int32(pos))
	case ix.typ == TText:
		ix.strs.add(v.s, pos)
	case ix.typ == TFloat:
		if i, integral, bits := floatKey(v.f); integral {
			ix.ints.add(i, pos)
		} else {
			ix.bits.add(bits, pos)
		}
	default:
		if ix.ints == nil {
			if ix.dense.add(v.i, pos) {
				return
			}
			ix.spill()
		}
		ix.ints.add(v.i, pos)
	}
}
