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
type hashIndex struct {
	typ   ColType
	ints  posMap[int64]  // TInt, TBool; TFloat cells with an integral value
	bits  posMap[uint64] // TFloat cells with a non-integral value
	strs  posMap[string] // TText
	nulls []int
}

// posMap maps a key to the positions of the rows holding it, ascending.
type posMap[K comparable] map[K][]int

func (m posMap[K]) add(k K, pos int) { m[k] = append(m[k], pos) }

func newHashIndex(typ ColType) *hashIndex {
	ix := &hashIndex{typ: typ}
	switch typ {
	case TText:
		ix.strs = make(posMap[string])
	case TFloat:
		ix.ints = make(posMap[int64])
		ix.bits = make(posMap[uint64])
	default:
		ix.ints = make(posMap[int64])
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

// get returns the positions of the cells whose Key equals v's, aliasing the
// index (callers must not modify the slice).
func (ix *hashIndex) get(v Value) []int {
	switch v.kind {
	case kindNull:
		return ix.nulls
	case kindInt:
		if ix.typ == TInt || ix.typ == TFloat {
			return ix.ints[v.i]
		}
	case kindFloat:
		i, integral, bits := floatKey(v.f)
		switch {
		case integral && (ix.typ == TInt || ix.typ == TFloat):
			return ix.ints[i]
		case !integral && ix.typ == TFloat:
			return ix.bits[bits]
		}
	case kindText:
		if ix.typ == TText {
			return ix.strs[v.s]
		}
	case kindBool:
		if ix.typ == TBool {
			return ix.ints[v.i]
		}
	}
	return nil
}

// add records that the cell at pos holds v, which is NULL or already coerced
// to the column's type.
func (ix *hashIndex) add(v Value, pos int) {
	switch {
	case v.kind == kindNull:
		ix.nulls = append(ix.nulls, pos)
	case ix.typ == TText:
		ix.strs.add(v.s, pos)
	case ix.typ == TFloat:
		if i, integral, bits := floatKey(v.f); integral {
			ix.ints.add(i, pos)
		} else {
			ix.bits.add(bits, pos)
		}
	default:
		ix.ints.add(v.i, pos)
	}
}
