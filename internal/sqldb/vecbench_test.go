package sqldb

import (
	"fmt"
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

// benchEngines runs one prepared SELECT on both engines at b.N iterations
// each, as sub-benchmarks.
func benchEngines(b *testing.B, rows int, sql string) {
	db := benchDB(b, rows)
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
	ps, err := db.Prepare(`SELECT COUNT(*) FROM m JOIN g ON m.grp = g.id WHERE m.val > 60`)
	if err != nil {
		b.Fatal(err)
	}
	defer ps.Close()
	for _, engine := range []string{EngineVector, EngineRow} {
		b.Run(engine, func(b *testing.B) {
			if err := db.SetEngine(engine); err != nil {
				b.Fatal(err)
			}
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
