package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

// benchDB builds a 1e6-row table for the engine microbenchmarks. Built once
// and shared: the benchmarks only read.
func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := NewDB()
	db.SetResultCacheSize(0) // measure execution, not the result cache
	if _, err := db.Exec(`CREATE TABLE m (id INTEGER PRIMARY KEY, grp INTEGER, val REAL, tag TEXT)`, nil); err != nil {
		b.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO m (id, grp, val, tag) VALUES (?, ?, ?, ?)`)
	if err != nil {
		b.Fatal(err)
	}
	defer ins.Close()
	tags := []string{"red", "green", "blue", "cyan"}
	const chunk = 4096
	bindings := make([]*Params, 0, chunk)
	for i := 0; i < rows; i++ {
		val := NewFloat(float64(i%1000) / 8)
		if i%97 == 0 {
			val = Null
		}
		bindings = append(bindings, &Params{Positional: []Value{
			NewInt(int64(i)), NewInt(int64(i % 64)), val, NewText(tags[i%4]),
		}})
		if len(bindings) == chunk || i == rows-1 {
			if _, err := ins.ExecuteBatch(bindings); err != nil {
				b.Fatal(err)
			}
			bindings = bindings[:0]
		}
	}
	return db
}

// benchEngines runs one prepared SELECT over a rows-row fixture on both
// engines (benchPrepared).
func benchEngines(b *testing.B, rows int, sql string) {
	benchPrepared(b, benchDB(b, rows), sql)
}

// benchPrepared runs one prepared SELECT on both engines at b.N iterations
// each, as sub-benchmarks.
func benchPrepared(b *testing.B, db *DB, sql string) {
	ps, err := db.Prepare(sql)
	if err != nil {
		b.Fatal(err)
	}
	defer ps.Close()
	for _, engine := range []string{EngineVector, EngineRow} {
		b.Run(engine, func(b *testing.B) {
			if err := db.SetEngine(engine); err != nil {
				b.Fatal(err)
			}
			// Warm lazy structures (join indexes) outside the timer.
			if _, err := ps.Execute(nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ps.Execute(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineFilter(b *testing.B) {
	benchEngines(b, 1_000_000, `SELECT COUNT(*) FROM m WHERE val > 100 AND grp < 32`)
}

// BenchmarkEngineFilterAnyOf filters by a disjunction of text equalities
// over one column beside a comparison — the shape of CommunicationCost's and
// IOCost's timing-type chains, which the vectorized engine fuses into one
// membership kernel.
func BenchmarkEngineFilterAnyOf(b *testing.B) {
	benchEngines(b, 1_000_000, `SELECT COUNT(*) FROM m WHERE (tag = 'red' OR tag = 'cyan' OR tag = 'none') AND val > 100`)
}

func BenchmarkEngineProject(b *testing.B) {
	benchEngines(b, 1_000_000, `SELECT id, val * 2 + 1 FROM m WHERE grp = 7 AND val > 110`)
}

func BenchmarkEngineAggregate(b *testing.B) {
	benchEngines(b, 1_000_000, `SELECT SUM(val), AVG(val), MIN(val), MAX(val), COUNT(val) FROM m`)
}

func BenchmarkEngineGroup(b *testing.B) {
	benchEngines(b, 1_000_000, `SELECT grp, COUNT(*), SUM(val) FROM m GROUP BY grp`)
}

func BenchmarkEngineJoin(b *testing.B) {
	db := benchDB(b, 250_000)
	if _, err := db.Exec(`CREATE TABLE g (id INTEGER PRIMARY KEY, name TEXT)`, nil); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO g (id, name) VALUES (%d, 'g%d')`, i, i), nil); err != nil {
			b.Fatal(err)
		}
	}
	benchPrepared(b, db, `SELECT COUNT(*) FROM m JOIN g ON m.grp = g.id WHERE m.val > 60`)
}

// junctionDB adds to the 1e6-row fact table a junction jx of 250 000 rows
// (owner = i mod 256, elem = 4i+3: one fact row in four is reached, and
// grp = elem mod 64 holds 7 for one junction row in sixteen), with jx.owner,
// jx.elem and m.grp indexed: the shape of a property's build side.
func junctionDB(b *testing.B) *DB {
	db := benchDB(b, 1_000_000)
	for _, s := range []string{
		`CREATE TABLE jx (owner INTEGER, elem INTEGER)`,
		`CREATE INDEX jx_owner ON jx (owner)`,
		`CREATE INDEX jx_elem ON jx (elem)`,
		`CREATE INDEX m_grp ON m (grp)`,
	} {
		if _, err := db.Exec(s, nil); err != nil {
			b.Fatal(err)
		}
	}
	ins, err := db.Prepare(`INSERT INTO jx (owner, elem) VALUES (?, ?)`)
	if err != nil {
		b.Fatal(err)
	}
	defer ins.Close()
	const rows, chunk = 250_000, 4096
	bindings := make([]*Params, 0, chunk)
	for i := 0; i < rows; i++ {
		bindings = append(bindings, &Params{Positional: []Value{NewInt(int64(i % 256)), NewInt(int64(4*i + 3))}})
		if len(bindings) == chunk || i == rows-1 {
			if _, err := ins.ExecuteBatch(bindings); err != nil {
				b.Fatal(err)
			}
			bindings = bindings[:0]
		}
	}
	return db
}

// BenchmarkEngineJoinPinned measures the join access: the junction joined to
// the fact table, which the WHERE pins by an indexed column, so the junction
// is seeded with the 15 625 rows whose fact rows the pin selects instead of
// being scanned whole (the shape of a property's build side pinned to one
// run).
func BenchmarkEngineJoinPinned(b *testing.B) {
	benchPrepared(b, junctionDB(b), `SELECT COUNT(*), SUM(m.val) FROM jx JOIN m ON m.id = jx.elem WHERE m.grp = 7`)
}

// BenchmarkEngineJoinKeyed measures a probe-keyed build: 64 contexts, each
// correlated with the junction by its owner and with the fact table by a
// group, which is 7 for every context. The build's probes ask for a quarter
// of the owners — 62 500 junction rows — but for one group, whose 15 625
// fact rows seed it (the shape of SublinearSpeedup's a12, probed with one
// run).
func BenchmarkEngineJoinKeyed(b *testing.B) {
	db := junctionDB(b)
	if _, err := db.Exec(`CREATE TABLE cx (id INTEGER PRIMARY KEY, grp INTEGER)`, nil); err != nil {
		b.Fatal(err)
	}
	rows := make([]string, 64)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, 7)", i)
	}
	if _, err := db.Exec(`INSERT INTO cx (id, grp) VALUES `+strings.Join(rows, ", "), nil); err != nil {
		b.Fatal(err)
	}
	benchPrepared(b, db, `SELECT cx.id, (SELECT SUM(m.val) FROM jx JOIN m ON m.id = jx.elem WHERE jx.owner = cx.id AND m.grp = cx.grp) FROM cx`)
}

// BenchmarkEngineSeek measures the indexed point-lookup shape the ASL
// property compiler emits: small candidate sets where batch setup overhead,
// not per-tuple interpretation, dominates.
func BenchmarkEngineSeek(b *testing.B) {
	db := benchDB(b, 1_000_000)
	ps, err := db.Prepare(`SELECT val FROM m WHERE id = ?`)
	if err != nil {
		b.Fatal(err)
	}
	defer ps.Close()
	params := &Params{Positional: []Value{NewInt(777_777)}}
	for _, engine := range []string{EngineVector, EngineRow} {
		b.Run(engine, func(b *testing.B) {
			if err := db.SetEngine(engine); err != nil {
				b.Fatal(err)
			}
			if _, err := ps.Execute(params); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ps.Execute(params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
