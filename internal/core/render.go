package core

import (
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The report's text. The instance table is what fmt writes for
// "%-28s %-34s %10.4f %6.2f %s\n": property and context left-justified in
// their widths, padded by runes as fmt pads; severity and confidence
// right-justified; then the problem mark.
const (
	propWidth, ctxWidth = 28, 34
	sevPrec, sevWidth   = 4, 10
	confPrec, confWidth = 2, 6
	threshPrec          = 3

	tableHead = "PROPERTY                     CONTEXT                              SEVERITY   CONF PROBLEM\n"
	noneHold  = "no performance properties hold; nothing to tune\n"
	problem   = "yes"

	// spaces pads a column; no column is wider.
	spaces = "                                  "
)

// Render formats the report as a text table. The text is sized before it is
// written, so the builder grows once.
func (r *Report) Render() string {
	var b strings.Builder
	b.Grow(r.renderLen())
	b.WriteString("COSY analysis: program ")
	b.WriteString(r.Program)
	b.WriteString(", ")
	var nope [20]byte
	b.Write(strconv.AppendInt(nope[:0], int64(r.NoPe), 10))
	b.WriteString(" PEs (engine: ")
	b.WriteString(r.Engine)
	b.WriteString(")\nseverity threshold: ")
	writeNum(&b, r.Threshold, threshPrec, 0)
	b.WriteByte('\n')
	if len(r.Instances) == 0 {
		b.WriteString(noneHold)
		return b.String()
	}
	b.WriteString(tableHead)
	for i := range r.Instances {
		in := &r.Instances[i]
		writeCol(&b, in.Property, propWidth)
		writeCol(&b, in.Context, ctxWidth)
		writeNum(&b, in.Severity, sevPrec, sevWidth)
		b.WriteByte(' ')
		writeNum(&b, in.Confidence, confPrec, confWidth)
		b.WriteByte(' ')
		if in.Severity > r.Threshold {
			b.WriteString(problem)
		}
		b.WriteByte('\n')
	}
	bn := r.Bottleneck()
	b.WriteString("bottleneck: ")
	b.WriteString(bn.Property)
	b.WriteString(" at ")
	b.WriteString(bn.Context)
	b.WriteString(" (severity ")
	writeNum(&b, bn.Severity, sevPrec, 0)
	b.WriteString(")\n")
	for _, d := range r.Diagnostics {
		b.WriteString("diagnostic: ")
		b.WriteString(d.Property)
		b.WriteByte(' ')
		b.WriteString(d.Context)
		b.WriteString(": ")
		b.WriteString(d.Diagnostic)
		b.WriteByte('\n')
	}
	return b.String()
}

// renderLen is the length of Render's text, counted as Render writes it.
func (r *Report) renderLen() int {
	var nope [20]byte
	n := len("COSY analysis: program ,  PEs (engine: )\nseverity threshold: \n") +
		len(r.Program) + len(strconv.AppendInt(nope[:0], int64(r.NoPe), 10)) + len(r.Engine) +
		numLen(r.Threshold, threshPrec, 0)
	if len(r.Instances) == 0 {
		return n + len(noneHold)
	}
	n += len(tableHead)
	for i := range r.Instances {
		in := &r.Instances[i]
		n += colLen(in.Property, propWidth) + colLen(in.Context, ctxWidth) +
			numLen(in.Severity, sevPrec, sevWidth) + len(" ") +
			numLen(in.Confidence, confPrec, confWidth) + len(" \n")
		if in.Severity > r.Threshold {
			n += len(problem)
		}
	}
	bn := r.Bottleneck()
	n += len("bottleneck:  at  (severity )\n") + len(bn.Property) + len(bn.Context) + numLen(bn.Severity, sevPrec, 0)
	for _, d := range r.Diagnostics {
		n += len("diagnostic:  : \n") + len(d.Property) + len(d.Context) + len(d.Diagnostic)
	}
	return n
}

// writeCol writes s left-justified in width runes, then the space that
// separates it from the next column.
func writeCol(b *strings.Builder, s string, width int) {
	b.WriteString(s)
	if pad := width - utf8.RuneCountInString(s); pad > 0 {
		b.WriteString(spaces[:pad])
	}
	b.WriteByte(' ')
}

// colLen is the length writeCol writes for s.
func colLen(s string, width int) int {
	return len(s) + max(0, width-utf8.RuneCountInString(s)) + len(" ")
}

// writeNum writes v with prec decimals, right-justified in width.
func writeNum(b *strings.Builder, v float64, prec, width int) {
	var buf [32]byte
	num := appendFixed(buf[:0], v, prec)
	if pad := width - len(num); pad > 0 {
		b.WriteString(spaces[:pad])
	}
	b.Write(num)
}

// numLen is the length writeNum writes for v. Below 10^(width-prec-2) - 1
// in magnitude, v fits the width with its sign and point, even where
// rounding carries into a new digit; only a wider number is formatted to
// be measured.
func numLen(v float64, prec, width int) int {
	if math.Abs(v) < math.Pow10(width-prec-2)-1 {
		return width
	}
	var buf [32]byte
	return max(width, len(appendFixed(buf[:0], v, prec)))
}

// pow10 holds the powers of ten appendFixed scales a fraction by.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// appendFixed appends v with prec decimals, the bytes of
// strconv.AppendFloat(dst, v, 'f', prec, 64), without the multiprecision
// decimal strconv uses for every 'f' format with a precision. A finite v
// below 2^53 in magnitude is an integer part and a fraction frac / 2^shift,
// both exact in 64 bits. The fraction's prec digits are frac × 10^prec, a
// 128-bit product, shifted right by shift and rounded half to even on the
// bits shifted out, as strconv rounds the exact decimal. Other values, and a
// prec outside 1..15, go to strconv.
func appendFixed(dst []byte, v float64, prec int) []byte {
	const mantBits, bias = 52, 1023
	b := math.Float64bits(v)
	exp := int(b>>mantBits) & 0x7ff
	if exp == 0x7ff || exp >= bias+mantBits+1 || prec < 1 || prec >= len(pow10) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	mant := b & (1<<mantBits - 1)
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << mantBits
	}
	// |v| = mant / 2^shift. Go shifts of 64 or more yield 0, so a shift past
	// the mantissa leaves it all to the fraction.
	shift := uint(bias + mantBits - exp)
	ip, frac := mant>>shift, mant&(1<<shift-1)
	var q uint64
	if frac != 0 {
		// p = frac × 10^prec as hi:lo. q2 is p >> (shift-1): q and the
		// half bit below it; sticky is whether any bit below that is set.
		hi, lo := bits.Mul64(frac, pow10[prec])
		s := shift - 1
		var q2 uint64
		var sticky bool
		if s < 64 {
			q2 = lo>>s | hi<<(64-s)
			sticky = lo&(1<<s-1) != 0
		} else {
			q2 = hi >> (s - 64)
			sticky = lo != 0 || hi&(1<<(s-64)-1) != 0
		}
		// 10^prec is even, so q's parity is the whole scaled value's.
		q = q2 >> 1
		if q2&1 == 1 && (sticky || q&1 == 1) {
			q++
		}
		if q == pow10[prec] {
			ip, q = ip+1, 0
		}
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, ip, 10)
	dst = append(dst, '.')
	n := len(dst)
	for range prec {
		dst = append(dst, '0')
	}
	for i := len(dst) - 1; i >= n; i-- {
		dst[i] = byte('0' + q%10)
		q /= 10
	}
	return dst
}
