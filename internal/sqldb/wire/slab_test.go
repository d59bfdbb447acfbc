package wire

import "testing"

// TestSlabLenDoesNotOverflow: a reply's item, row and value counts are each
// checked against the bytes left in the frame only, so in a frame of 21 MiB
// all three can be 2^22 and their product 2^66, which wraps to 0 — a slab
// shorter than the row about to be cut from it. The size is pinned here and
// not by a frame in TestHostileCountsCostNothing because a frame whose counts
// reach the overflow is megabytes of NULLs that decode, legitimately, into
// hundreds of megabytes of rows.
func TestSlabLenDoesNotOverflow(t *testing.T) {
	const frame = 21 << 20
	const maxFrame = 1 << 26
	for _, c := range []struct{ width, rows, lists, limit, want int }{
		{1 << 22, 1 << 22, 1 << 22, frame, frame},              // product 2^66: 0 mod 2^64
		{3037000, 3037000, 1 << 20, frame, frame},              // just over 2^63: negative
		{maxFrame, maxFrame, maxFrame / 5, maxFrame, maxFrame}, // the largest counts any frame admits
		{4, 1, 32, frame, 128},                                 // a warm batch reply
		{8, 1000, 1, frame, 8000},                              // a fetch
		{1, 10, 3, frame, 30},                                  // row headers
		{8, 1000, 4, 20000, 20000},                             // more announced than the frame holds
	} {
		if got := slabLen(c.width, c.rows, c.lists, c.limit); got != c.want {
			t.Errorf("slabLen(%d, %d, %d, %d) = %d, want %d", c.width, c.rows, c.lists, c.limit, got, c.want)
		}
	}
}
