package godbc_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// startServer launches a wire server over a populated database.
func startServer(t *testing.T) (*sqldb.DB, *wire.Server) {
	t.Helper()
	db := sqldb.NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)`, nil)
	for i := 1; i <= 20; i++ {
		db.MustExec(`INSERT INTO t (id, v) VALUES (?, ?)`, &sqldb.Params{Positional: []sqldb.Value{
			sqldb.NewInt(int64(i)), sqldb.NewFloat(float64(i) * 1.5),
		}})
	}
	srv, err := wire.NewServer(db, wire.ProfileFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return db, srv
}

func TestConnPreparedStatement(t *testing.T) {
	_, srv := startServer(t)
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	st, err := conn.Prepare(`SELECT v FROM t WHERE id = $id`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		set, err := st.ExecQuery(&sqldb.Params{Named: map[string]sqldb.Value{"id": sqldb.NewInt(int64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Rows) != 1 || set.Rows[0][0].Float() != float64(i)*1.5 {
			t.Fatalf("id %d: %v", i, set.Rows)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := st.ExecQuery(nil); err == nil {
		t.Fatal("execute after close succeeded")
	}
}

func TestConnPreparedWrite(t *testing.T) {
	db, srv := startServer(t)
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	st, err := conn.Prepare(`INSERT INTO t (id, v) VALUES ($id, $v)`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 21; i <= 23; i++ {
		res, err := st.Exec(&sqldb.Params{Named: map[string]sqldb.Value{
			"id": sqldb.NewInt(int64(i)), "v": sqldb.NewFloat(0),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != 1 {
			t.Fatalf("affected = %d", res.Affected)
		}
	}
	if n := db.Table("t").NumRows(); n != 23 {
		t.Fatalf("rows = %d, want 23", n)
	}
}

func TestPrepareErrorPropagates(t *testing.T) {
	_, srv := startServer(t)
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Prepare(`SELECT * FROM missing`); err == nil {
		t.Fatal("prepare against missing table succeeded")
	}
	// The connection must stay usable after a prepare error.
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestServerReleasesHandlesOnDisconnect(t *testing.T) {
	db, srv := startServer(t)
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Prepare(`SELECT v FROM t`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Prepare(`SELECT id FROM t`); err != nil {
		t.Fatal(err)
	}
	if live := db.Stats().PreparedLive; live != 2 {
		t.Fatalf("live handles = %d, want 2", live)
	}
	conn.Close()
	srv.Close() // waits for the handler goroutine to run its cleanup
	if live := db.Stats().PreparedLive; live != 0 {
		t.Fatalf("live handles after disconnect = %d, want 0", live)
	}
}

// TestPooledPreparedConcurrent runs one pooled prepared statement from many
// goroutines (run with -race): each underlying connection must prepare at
// most once and all executions must return correct rows.
func TestPooledPreparedConcurrent(t *testing.T) {
	db, srv := startServer(t)
	pool, err := godbc.NewPool(srv.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	pq, err := pool.PrepareQuery(`SELECT v FROM t WHERE id = $id`)
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				id := int64(1 + (w*31+i)%20)
				set, err := pq.ExecQuery(&sqldb.Params{Named: map[string]sqldb.Value{"id": sqldb.NewInt(id)}})
				if err != nil {
					errs <- err
					return
				}
				if len(set.Rows) != 1 || set.Rows[0][0].Float() != float64(id)*1.5 {
					errs <- fmt.Errorf("id %d: %v", id, set.Rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// At most one server-side handle per pooled connection.
	if live := db.Stats().PreparedLive; live > int64(pool.Size()) {
		t.Fatalf("live handles = %d, want <= pool size %d", live, pool.Size())
	}
	if _, err := pq.ExecQuery(nil); err == nil {
		t.Fatal("closed pooled statement executed")
	}
}

func TestEmbeddedPreparedQuery(t *testing.T) {
	db := sqldb.NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)`, nil)
	db.MustExec(`INSERT INTO t (id, v) VALUES (1, 2.5)`, nil)
	for name, q := range map[string]sqlgen.QueryPreparer{
		"embedded": godbc.Embedded{DB: db},
		"profiled": godbc.Embedded{DB: db, Profile: wire.ProfileAccess},
	} {
		pq, err := q.PrepareQuery(`SELECT v FROM t WHERE id = $id`)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		set, err := pq.ExecQuery(&sqldb.Params{Named: map[string]sqldb.Value{"id": sqldb.NewInt(1)}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(set.Rows) != 1 || set.Rows[0][0].Float() != 2.5 {
			t.Fatalf("%s: %v", name, set.Rows)
		}
		if err := pq.Close(); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
	}
	if live := db.Stats().PreparedLive; live != 0 {
		t.Fatalf("live embedded handles = %d, want 0", live)
	}
}
