package sqldb

// Fuzzing the result-cache parameter fingerprint. The cache keys an entry by
// plan + fingerprintMarkers(plan's markers, params); a collision between two
// bindings that give some marker different values would serve one request's
// cached rows to another — cross-request data bleed. The fingerprint must
// therefore be deterministic and injective over the values of the markers,
// for every parameter set the engine can see (named parameters are SQL
// identifiers: the parser only produces [A-Za-z0-9_] names).
//
// The fuzzer decodes two parameter sets from raw bytes, takes the first one's
// parameters for the markers of a statement, and checks both directions: a
// second set that binds every marker to the same value fingerprints equally
// (whatever else it carries — the statement does not read it), any other
// differently or not at all.

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// paramReader deterministically decodes fuzz bytes into parameter sets.
type paramReader struct {
	data []byte
	pos  int
}

func (r *paramReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *paramReader) uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

func (r *paramReader) value() Value {
	switch r.byte() % 5 {
	case 0:
		return Null
	case 1:
		return NewInt(int64(r.uint64()))
	case 2:
		f := math.Float64frombits(r.uint64())
		if math.IsNaN(f) {
			// NaN payloads all render as "NaN"; the engine never produces
			// NaN bindings, so fold them out instead of "finding" them.
			f = 0
		}
		return NewFloat(f)
	case 3:
		n := int(r.byte() % 16)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = r.byte()
		}
		return NewText(string(buf))
	default:
		return NewBool(r.byte()%2 == 1)
	}
}

const identChars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"

func (r *paramReader) ident() string {
	n := int(r.byte()%6) + 1
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = identChars[int(r.byte())%len(identChars)]
	}
	return string(buf)
}

func (r *paramReader) params() *Params {
	if r.byte()%8 == 0 {
		return nil
	}
	p := &Params{}
	for i := int(r.byte() % 5); i > 0; i-- {
		p.Positional = append(p.Positional, r.value())
	}
	if n := int(r.byte() % 4); n > 0 {
		p.Named = make(map[string]Value)
		for i := 0; i < n; i++ {
			p.Named[r.ident()] = r.value()
		}
	}
	return p
}

// sameValue is identity under the fingerprint's contract: types distinct
// (int 1 ≠ float 1.0), floats by bit pattern (0.0 ≠ -0.0).
func sameValue(a, b Value) bool {
	switch {
	case a.IsNull():
		return b.IsNull()
	case a.IsInt():
		return b.IsInt() && a.Int() == b.Int()
	case a.IsNumeric():
		return !b.IsNull() && !b.IsInt() && b.IsNumeric() &&
			math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case a.IsText():
		return b.IsText() && a.Text() == b.Text()
	default:
		return !b.IsNull() && !b.IsInt() && !b.IsNumeric() && !b.IsText() && a.Bool() == b.Bool()
	}
}

// markersOf returns the markers of a statement that reads exactly p's
// parameters: every positional one, then the named ones in name order.
func markersOf(p *Params) []EParam {
	if p == nil {
		return nil
	}
	var markers []EParam
	for i := range p.Positional {
		markers = append(markers, EParam{Ordinal: i})
	}
	names := make([]string, 0, len(p.Named))
	for n := range p.Named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		markers = append(markers, EParam{Ordinal: -1, Name: n})
	}
	return markers
}

// bindAlike reports whether both sets bind every marker, to the same value.
func bindAlike(markers []EParam, a, b *Params) bool {
	for i := range markers {
		av, aok := a.lookup(&markers[i])
		bv, bok := b.lookup(&markers[i])
		if !aok || !bok || !sameValue(av, bv) {
			return false
		}
	}
	return true
}

func describeParams(p *Params) string {
	if p == nil {
		return "<nil>"
	}
	var out string
	for _, v := range p.Positional {
		out += v.Key() + "|"
	}
	names := make([]string, 0, len(p.Named))
	for n := range p.Named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out += n + "=" + p.Named[n].Key() + "|"
	}
	return out
}

func FuzzFingerprintParams(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 42, 0}, []byte{1, 2, 2, 0, 0, 0, 0, 0, 0, 0, 42, 0})
	f.Add([]byte{1, 1, 3, 5, 104, 101, 108, 108, 111, 0}, []byte{1, 1, 3, 5, 104, 101, 108, 108, 111, 1})
	f.Add([]byte{1, 0, 2, 3, 97, 1, 9, 3, 98, 4, 1}, []byte{1, 0, 2, 3, 98, 1, 9, 3, 97, 4, 1})
	f.Add([]byte{1, 3, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 4, 1, 0}, []byte{1, 3, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 4, 0, 0})

	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		pa := (&paramReader{data: rawA}).params()
		pb := (&paramReader{data: rawB}).params()

		markers := markersOf(pa)
		fa, ok := fingerprintMarkers(nil, markers, pa)
		if !ok {
			t.Fatalf("a=%s does not bind its own markers", describeParams(pa))
		}
		if again, _ := fingerprintMarkers(nil, markers, pa); !bytes.Equal(again, fa) {
			t.Fatalf("fingerprint not deterministic: %q then %q", fa, again)
		}
		fb, ok := fingerprintMarkers(nil, markers, pb)
		same := ok && bytes.Equal(fa, fb)
		if bindAlike(markers, pa, pb) {
			if !same {
				t.Fatalf("bindings that agree on every marker fingerprint differently:\n a=%s → %q\n b=%s → %q (bound: %v)",
					describeParams(pa), fa, describeParams(pb), fb, ok)
			}
		} else if same {
			t.Fatalf("bindings that differ on a marker share fingerprint %q (cache would bleed results):\n a=%s\n b=%s",
				fa, describeParams(pa), describeParams(pb))
		}
	})
}
