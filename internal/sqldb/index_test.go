package sqldb

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestHashIndexGetMatchesKey: the typed index finds, for any probe value,
// exactly the cells whose Value.Key equals the probe's — the semantics of the
// string-keyed index it replaced, which grouping still has. Columns hold what
// Table.insert would store (NULL or a value coerced to the column type). An
// INTEGER or BOOLEAN column is indexed both as a load makes it, cell by cell
// from empty, and as CREATE INDEX or a DELETE does, in one build; it
// must come out dense exactly when its key span is at most denseFactor per
// distinct key.
func TestHashIndexGetMatchesKey(t *testing.T) {
	huge := 1e300 // integral, far outside int64: Key folds it like any integral REAL
	const exact = 1 << 53
	ints := func(ks ...any) []Value {
		var vs []Value
		for _, k := range ks {
			if k == nil {
				vs = append(vs, Null)
			} else {
				vs = append(vs, NewInt(int64(k.(int))))
			}
		}
		return vs
	}
	columns := []struct {
		name  string
		typ   ColType
		dense bool // for TInt and TBool, built in one pass
		cells []Value
	}{
		{"int sparse", TInt, false, []Value{NewInt(1), NewInt(3), Null, NewInt(1), NewInt(0), NewInt(-2), NewInt(math.MinInt64)}},
		{"int dense", TInt, true, ints(10, 12, nil, 11, 10, 14, 13, -1+10)},
		{"int negative", TInt, true, ints(-7, -5, -7, nil, -4)},
		{"int at the rule", TInt, true, ints(0, 7, 7)},    // 2 keys over 8
		{"int past the rule", TInt, false, ints(0, 8, 8)}, // 2 keys over 9
		{"int beyond 2^53", TInt, true, ints(exact+1, exact, exact+2, nil, exact+1)},
		{"int across ±2^53", TInt, false, ints(exact+1, -exact-1)},
		{"int at MaxInt64", TInt, true, []Value{NewInt(math.MaxInt64), NewInt(math.MaxInt64 - 2), NewInt(math.MaxInt64)}},
		{"int at MinInt64", TInt, true, []Value{NewInt(math.MinInt64 + 1), Null, NewInt(math.MinInt64)}},
		{"int from MinInt64 to MaxInt64", TInt, false, []Value{NewInt(math.MinInt64), NewInt(math.MaxInt64)}},
		{"int nulls only", TInt, true, []Value{Null, Null}},
		{"int empty", TInt, true, nil},
		{"real", TFloat, false, []Value{NewFloat(1), NewFloat(1.5), Null, NewFloat(3), NewFloat(1.5), NewFloat(math.NaN()),
			NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.Copysign(0, -1)), NewFloat(0), NewFloat(huge), NewFloat(-huge)}},
		{"text", TText, false, []Value{NewText("a"), NewText(""), Null, NewText("1"), NewText("a"), NewText("i1"), NewText("n")}},
		{"bool", TBool, true, []Value{NewBool(true), NewBool(false), Null, NewBool(true)}},
	}
	probes := []Value{
		Null,
		NewInt(0), NewInt(1), NewInt(3), NewInt(-2), NewInt(7), NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewFloat(3), NewFloat(1.5), NewFloat(2.5),
		NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(huge), NewFloat(-huge),
		NewText("a"), NewText(""), NewText("1"), NewText("i1"), NewText("n"), NewText("zzz"),
		NewBool(true), NewBool(false),
	}
	for _, col := range columns {
		cv := newColVec(col.typ)
		built := newHashIndex(col.typ)
		for pos, v := range col.cells {
			cv.appendVal(v)
			built.add(v, pos)
		}
		// Each key, its neighbours, and the integral REAL that equals it.
		probes := slices.Clone(probes)
		for _, v := range col.cells {
			if v.kind == kindInt {
				probes = append(probes, NewInt(v.i-1), NewInt(v.i+1), NewFloat(float64(v.i)))
			}
		}
		loaded := buildHashIndex(cv, len(col.cells))
		if isDense := loaded.ints == nil && col.typ != TFloat && col.typ != TText; isDense != col.dense {
			t.Errorf("%s column: dense = %v, want %v", col.name, isDense, col.dense)
		}
		for _, ix := range []*hashIndex{built, loaded} {
			checkIndex(t, col.name, ix, col.cells, probes)
		}
	}
}

// checkIndex compares ix.get with a lookup by Value.Key over cells for every
// probe.
func checkIndex(t *testing.T, name string, ix *hashIndex, cells, probes []Value) {
	t.Helper()
	byKey := make(map[string][]int32)
	for pos, v := range cells {
		byKey[v.Key()] = append(byKey[v.Key()], int32(pos))
	}
	for _, p := range probes {
		if got, want := ix.get(p), byKey[p.Key()]; !slices.Equal(got, want) {
			t.Errorf("%s column (dense %v), probe %s: get = %v, Key lookup = %v", name, ix.ints == nil, p, got, want)
		}
	}
}

// TestDenseIndexSpills: inserts at or past the highest key keep a dense
// index dense while the keys stay dense; a key below it, one inside the span,
// or one far past it spills to the map, after which every key still finds its
// rows. A DELETE rebuilds the index densely again.
func TestDenseIndexSpills(t *testing.T) {
	for _, tc := range []struct {
		name           string
		next           []int64
		dense, rebuilt bool // after the inserts, and after the DELETE
	}{
		{"at the highest key", []int64{104, 104}, true, true},
		{"past the highest key", []int64{105, 107, 108}, true, true},
		{"inside the span", []int64{102}, false, true},
		{"below the lowest key", []int64{99}, false, true},
		{"far past the span", []int64{1 << 40}, false, false},
		{"at MaxInt64", []int64{math.MaxInt64}, false, false},
		{"at MinInt64", []int64{math.MinInt64}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := NewDB()
			db.MustExec("CREATE TABLE d (id INTEGER PRIMARY KEY, k INTEGER)", nil)
			db.MustExec("CREATE INDEX idx_d_k ON d (k)", nil)
			tbl := db.Table("d")
			col := tbl.ColumnIndex("k")
			var cells []Value
			insert := func(k int64) {
				t.Helper()
				id := NewInt(int64(len(cells)))
				if _, err := db.Exec("INSERT INTO d (id, k) VALUES (?, ?)", &Params{Positional: []Value{id, NewInt(k)}}); err != nil {
					t.Fatal(err)
				}
				cells = append(cells, NewInt(k))
			}
			for _, k := range []int64{100, 101, 101, 103, 104} {
				insert(k)
			}
			db.MustExec("INSERT INTO d (id, k) VALUES (99, NULL)", nil)
			cells = append(cells, Null)
			for _, k := range tc.next {
				insert(k)
			}
			probes := []Value{Null, NewInt(math.MinInt64), NewInt(math.MaxInt64), NewInt(1 << 40)}
			for k := int64(98); k <= 109; k++ {
				probes = append(probes, NewInt(k), NewFloat(float64(k)))
			}
			ix := tbl.index(col)
			if got := ix.ints == nil; got != tc.dense {
				t.Errorf("dense after the inserts = %v, want %v", got, tc.dense)
			}
			checkIndex(t, tc.name, ix, cells, probes)

			db.MustExec("DELETE FROM d WHERE id = 0", nil)
			cells = cells[1:]
			ix = tbl.index(col)
			if got := ix.ints == nil; got != tc.rebuilt {
				t.Errorf("dense after DELETE = %v, want %v", got, tc.rebuilt)
			}
			checkIndex(t, tc.name+" after DELETE", ix, cells, probes)
		})
	}
}

// FuzzHashIndex drives an INTEGER or BOOLEAN column's index through random
// inserts (keys near the span, far from it, NULLs), DELETEs (which rebuild
// it) and probes of every kind, against a scan comparing Value.Key.
func FuzzHashIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 5, 1, 7, 2, 9, 3, 1})
	f.Add([]byte{0, 200, 0, 3, 4, 0, 1, 2, 2, 5, 2, 250, 3, 0, 3, 7})
	f.Add([]byte{1, 0, 1, 0, 2, 1, 5, 3, 0, 3, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 1024 {
			return // a probe scans the column: bound the rows
		}
		typ := TInt
		if ops[0]%4 == 1 {
			typ = TBool
		}
		r := &paramReader{data: ops[1:]}
		key := func() Value {
			b := r.byte()
			switch {
			case typ == TBool && b%5 == 0:
				return Null
			case typ == TBool:
				return NewBool(b%2 == 1)
			case b%8 == 0:
				return Null
			case b%8 == 1:
				return NewInt(int64(r.uint64()))
			case b%8 == 2:
				return NewInt(int64(b) << 40)
			}
			return NewInt(int64(b>>3) - 8)
		}
		cv := newColVec(typ)
		ix := newHashIndex(typ)
		for r.pos < len(r.data) {
			switch op := r.byte(); op % 4 {
			case 0, 1:
				v := key()
				ix.add(v, cv.n)
				cv.appendVal(v)
			case 2:
				if cv.n == 0 {
					continue
				}
				var drop []int32
				for i := range cv.n {
					if i == int(r.byte())%cv.n {
						drop = append(drop, int32(i))
					}
				}
				cv.compact(drop)
				ix = buildHashIndex(cv, cv.n)
			default:
				var p Value
				switch b := r.byte(); b % 4 {
				case 0:
					p = key()
				case 1:
					p = NewFloat(float64(int64(b>>2) - 8))
				case 2:
					p = NewFloat(float64(int64(b>>2)-8) + 0.5)
				default:
					p = r.value()
				}
				var want []int32
				for pos := 0; pos < cv.n; pos++ {
					if cv.value(pos).Key() == p.Key() {
						want = append(want, int32(pos))
					}
				}
				if got := ix.get(p); !slices.Equal(got, want) {
					t.Fatalf("%s column of %d rows (dense %v), probe %s: get = %v, scan = %v", typ, cv.n, ix.ints == nil, p, got, want)
				}
			}
		}
	})
}

// TestIndexedSeekAcrossKinds drives the same equivalences through SQL on both
// engines: an integral REAL seeks an INTEGER column, a fractional one finds
// nothing, a NULL probe selects no row, and a probe of a kind the column
// cannot hold finds nothing either — the index never yields a candidate, so
// the comparison that would raise "cannot compare" is never reached.
func TestIndexedSeekAcrossKinds(t *testing.T) {
	db := NewDB()
	db.SetResultCacheSize(0)
	db.MustExec("CREATE TABLE k (id INTEGER PRIMARY KEY, w REAL, s TEXT, b BOOLEAN)", nil)
	for _, col := range []string{"w", "s", "b"} {
		db.MustExec("CREATE INDEX idx_k_"+col+" ON k ("+col+")", nil)
	}
	db.MustExec("INSERT INTO k (id, w, s, b) VALUES (1, 2.0, 'x', TRUE)", nil)
	db.MustExec("INSERT INTO k (id, w, s, b) VALUES (2, 2.5, 'y', FALSE)", nil)
	db.MustExec("INSERT INTO k (id, w, s, b) VALUES (3, NULL, NULL, NULL)", nil)
	for _, tc := range []struct {
		col   string
		probe Value
		want  string // ids found
	}{
		{"id", NewInt(2), "[2]"}, {"id", NewFloat(2), "[2]"}, {"id", NewFloat(2.5), "[]"},
		{"id", NewText("2"), "[]"}, {"id", NewBool(true), "[]"}, {"id", Null, "[]"},
		{"w", NewInt(2), "[1]"}, {"w", NewFloat(2.5), "[2]"}, {"w", NewFloat(math.NaN()), "[]"}, {"w", Null, "[]"},
		{"s", NewText("y"), "[2]"}, {"s", NewText("z"), "[]"}, {"s", NewInt(1), "[]"},
		{"b", NewBool(false), "[2]"}, {"b", NewInt(0), "[]"},
	} {
		for _, engine := range []string{EngineVector, EngineRow} {
			if err := db.SetEngine(engine); err != nil {
				t.Fatal(err)
			}
			// The join form probes through probeJoin / the row engine's join
			// lookup, the WHERE form through the seek.
			for _, sql := range []string{
				"SELECT id FROM k WHERE " + tc.col + " = $p ORDER BY id",
				"SELECT k.id FROM k one JOIN k ON k." + tc.col + " = $p WHERE one.id = 1 ORDER BY k.id",
			} {
				res, err := db.Exec(sql, &Params{Named: map[string]Value{"p": tc.probe}})
				if err != nil {
					t.Errorf("%s: %s with %s: %v", engine, sql, tc.probe, err)
					continue
				}
				ids := []int64{}
				for _, r := range res.Set.Rows {
					ids = append(ids, r[0].Int())
				}
				if got := fmt.Sprint(ids); got != tc.want {
					t.Errorf("%s: %s with %s: got %s, want %s", engine, sql, tc.probe, got, tc.want)
				}
			}
		}
	}
}

// TestPrimaryKeyDuplicateByValue: the duplicate check compares values, not
// spellings — 1 and 1.0 are one key in an INTEGER and in a REAL column.
func TestPrimaryKeyDuplicateByValue(t *testing.T) {
	for _, typ := range []string{"INTEGER", "REAL"} {
		db := NewDB()
		db.MustExec("CREATE TABLE p (id "+typ+" PRIMARY KEY)", nil)
		db.MustExec("INSERT INTO p (id) VALUES (1)", nil)
		if _, err := db.Exec("INSERT INTO p (id) VALUES (1.0)", nil); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
			t.Errorf("%s key: inserting 1.0 after 1: err = %v, want duplicate primary key", typ, err)
		}
		if _, err := db.Exec("INSERT INTO p (id) VALUES (2.0)", nil); err != nil {
			t.Errorf("%s key: inserting 2.0: %v", typ, err)
		}
		if n := db.Table("p").NumRows(); n != 2 {
			t.Errorf("%s key: %d rows, want 2", typ, n)
		}
	}
}

// TestUpdateRebuildsOnlyAssignedIndexes: UPDATE leaves row positions alone,
// so only an index over an assigned column can go stale. Both engines must
// rebuild exactly those — and a seek through either index must see the
// updated rows.
func TestUpdateRebuildsOnlyAssignedIndexes(t *testing.T) {
	for _, engine := range []string{EngineVector, EngineRow} {
		t.Run(engine, func(t *testing.T) {
			db := NewDB()
			db.SetResultCacheSize(0)
			if err := db.SetEngine(engine); err != nil {
				t.Fatal(err)
			}
			db.MustExec("CREATE TABLE u (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)", nil)
			db.MustExec("CREATE INDEX idx_u_a ON u (a)", nil)
			for i := 0; i < 6; i++ {
				db.MustExec("INSERT INTO u (id, a, b) VALUES (?, ?, ?)", &Params{Positional: []Value{
					NewInt(int64(i)), NewInt(int64(i % 2)), NewInt(int64(100 + i)),
				}})
			}
			tbl := db.Table("u")
			idCol, aCol := tbl.ColumnIndex("id"), tbl.ColumnIndex("a")
			seek := func(where string) string {
				t.Helper()
				res, err := db.Exec("SELECT id, a, b FROM u WHERE "+where+" ORDER BY id", nil)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(res.Set.Rows)
			}

			// A non-indexed column: neither index is rebuilt, both still seek.
			idIdx, aIdx := tbl.index(idCol), tbl.index(aCol)
			db.MustExec("UPDATE u SET b = b + 1000 WHERE a = 1", nil)
			if tbl.index(idCol) != idIdx || tbl.index(aCol) != aIdx {
				t.Error("UPDATE of a non-indexed column rebuilt an index")
			}
			if got, want := seek("id = 3"), "[[3 1 1103]]"; got != want {
				t.Errorf("seek by id after SET b: %s, want %s", got, want)
			}
			if got, want := seek("a = 1"), "[[1 1 1101] [3 1 1103] [5 1 1105]]"; got != want {
				t.Errorf("seek by a after SET b: %s, want %s", got, want)
			}

			// An indexed column: its index is rebuilt, the other is not.
			db.MustExec("UPDATE u SET a = a + 10 WHERE id >= 4", nil)
			if tbl.index(idCol) != idIdx {
				t.Error("UPDATE of column a rebuilt the primary-key index")
			}
			if tbl.index(aCol) == aIdx {
				t.Error("UPDATE of column a did not rebuild its index")
			}
			if got, want := seek("a = 1"), "[[1 1 1101] [3 1 1103]]"; got != want {
				t.Errorf("seek by old a: %s, want %s", got, want)
			}
			if got, want := seek("a = 11"), "[[5 11 1105]]"; got != want {
				t.Errorf("seek by new a: %s, want %s", got, want)
			}
			if got, want := seek("id = 4"), "[[4 10 104]]"; got != want {
				t.Errorf("seek by id after SET a: %s, want %s", got, want)
			}

			// DELETE shifts positions: every index follows.
			db.MustExec("DELETE FROM u WHERE id = 0", nil)
			if got, want := seek("id = 5"), "[[5 11 1105]]"; got != want {
				t.Errorf("seek by id after DELETE: %s, want %s", got, want)
			}
			if got, want := seek("a = 0"), "[[2 0 102]]"; got != want {
				t.Errorf("seek by a after DELETE: %s, want %s", got, want)
			}
		})
	}
}
