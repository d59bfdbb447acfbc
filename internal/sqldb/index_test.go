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
// Table.insert would store (NULL or a value coerced to the column type).
func TestHashIndexGetMatchesKey(t *testing.T) {
	huge := 1e300 // integral, far outside int64: Key folds it like any integral REAL
	columns := []struct {
		typ   ColType
		cells []Value
	}{
		{TInt, []Value{NewInt(1), NewInt(3), Null, NewInt(1), NewInt(0), NewInt(-2), NewInt(math.MinInt64)}},
		{TFloat, []Value{NewFloat(1), NewFloat(1.5), Null, NewFloat(3), NewFloat(1.5), NewFloat(math.NaN()),
			NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.Copysign(0, -1)), NewFloat(0), NewFloat(huge), NewFloat(-huge)}},
		{TText, []Value{NewText("a"), NewText(""), Null, NewText("1"), NewText("a"), NewText("i1"), NewText("n")}},
		{TBool, []Value{NewBool(true), NewBool(false), Null, NewBool(true)}},
	}
	probes := []Value{
		Null,
		NewInt(0), NewInt(1), NewInt(3), NewInt(-2), NewInt(7), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewFloat(3), NewFloat(1.5), NewFloat(2.5),
		NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(huge), NewFloat(-huge),
		NewText("a"), NewText(""), NewText("1"), NewText("i1"), NewText("n"), NewText("zzz"),
		NewBool(true), NewBool(false),
	}
	for _, col := range columns {
		ix := newHashIndex(col.typ)
		byKey := make(map[string][]int)
		for pos, v := range col.cells {
			ix.add(v, pos)
			byKey[v.Key()] = append(byKey[v.Key()], pos)
		}
		for _, p := range probes {
			if got, want := ix.get(p), byKey[p.Key()]; !slices.Equal(got, want) {
				t.Errorf("%s column, probe %s: get = %v, Key lookup = %v", col.typ, p, got, want)
			}
		}
	}
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
