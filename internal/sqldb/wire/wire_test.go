package wire_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// startPair launches a server over a fresh database and returns a connected
// client.
func startPair(t *testing.T, profile wire.Profile) (*sqldb.DB, *godbc.Conn) {
	t.Helper()
	db := sqldb.NewDB()
	srv, err := wire.NewServer(db, profile, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		srv.Close()
	})
	return db, conn
}

func TestPingAndExec(t *testing.T) {
	_, conn := startPair(t, wire.ProfileFast)
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)", nil); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Exec("INSERT INTO t (id, v) VALUES (?, ?), (?, ?)",
		&sqldb.Params{Positional: []sqldb.Value{
			sqldb.NewInt(1), sqldb.NewFloat(1.5),
			sqldb.NewInt(2), sqldb.NewFloat(2.5),
		}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	set, err := conn.ExecQuery("SELECT v FROM t ORDER BY id", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 2 || set.Rows[0][0].Float() != 1.5 {
		t.Fatalf("rows: %v", set.Rows)
	}
}

func TestErrorPropagation(t *testing.T) {
	_, conn := startPair(t, wire.ProfileFast)
	if _, err := conn.Exec("SELECT * FROM nosuch", nil); err == nil {
		t.Fatal("expected server error")
	}
	// The connection must remain usable after an error.
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("BOGUS SQL", nil); err == nil {
		t.Fatal("expected query error")
	}
}

func TestCursorFetchSizes(t *testing.T) {
	db, conn := startPair(t, wire.ProfileFast)
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY)", nil)
	for i := 0; i < 57; i++ {
		db.MustExec("INSERT INTO t (id) VALUES (?)", &sqldb.Params{Positional: []sqldb.Value{sqldb.NewInt(int64(i))}})
	}
	for _, size := range []int{1, 2, 10, 57, 100} {
		conn.SetFetchSize(size)
		rows, err := conn.Query("SELECT id FROM t ORDER BY id", nil)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(0)
		for rows.Next() {
			if rows.Row()[0].Int() != n {
				t.Fatalf("fetch size %d: row %d = %v", size, n, rows.Row())
			}
			n++
		}
		if rows.Err() != nil {
			t.Fatal(rows.Err())
		}
		if n != 57 {
			t.Fatalf("fetch size %d: fetched %d rows", size, n)
		}
	}
	if conn.FetchSize() != 100 {
		t.Fatalf("FetchSize = %d", conn.FetchSize())
	}
	conn.SetFetchSize(0)
	if conn.FetchSize() != 1 {
		t.Fatal("SetFetchSize must clamp to 1")
	}
}

func TestCursorCloseEarly(t *testing.T) {
	db, conn := startPair(t, wire.ProfileFast)
	db.MustExec("CREATE TABLE t (id INTEGER)", nil)
	for i := 0; i < 10; i++ {
		db.MustExec("INSERT INTO t (id) VALUES (?)", &sqldb.Params{Positional: []sqldb.Value{sqldb.NewInt(int64(i))}})
	}
	rows, err := conn.Query("SELECT id FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh query on the same connection must still work.
	set, err := conn.ExecQuery("SELECT COUNT(*) FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].Int() != 10 {
		t.Fatalf("count: %v", set.Rows[0][0])
	}
}

func TestNamedParamsOverWire(t *testing.T) {
	db, conn := startPair(t, wire.ProfileFast)
	db.MustExec("CREATE TABLE t (id INTEGER, tag TEXT)", nil)
	db.MustExec("INSERT INTO t (id, tag) VALUES (1, 'a'), (2, 'b')", nil)
	set, err := conn.ExecQuery("SELECT id FROM t WHERE tag = $tag",
		&sqldb.Params{Named: map[string]sqldb.Value{"tag": sqldb.NewText("b")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 1 || set.Rows[0][0].Int() != 2 {
		t.Fatalf("rows: %v", set.Rows)
	}
}

func TestNullsSurviveTheWire(t *testing.T) {
	db, conn := startPair(t, wire.ProfileFast)
	db.MustExec("CREATE TABLE t (id INTEGER, v REAL)", nil)
	db.MustExec("INSERT INTO t (id, v) VALUES (1, NULL)", nil)
	set, err := conn.ExecQuery("SELECT v FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Rows[0][0].IsNull() {
		t.Fatalf("NULL lost: %v", set.Rows[0][0])
	}
}

func TestConcurrentConnections(t *testing.T) {
	db, _ := startPair(t, wire.ProfileFast)
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)", nil)
	srv, err := wire.NewServer(db, wire.ProfileFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := godbc.Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for i := 0; i < 25; i++ {
				id := int64(w*1000 + i)
				if _, err := conn.Exec("INSERT INTO t (id, v) VALUES (?, ?)",
					&sqldb.Params{Positional: []sqldb.Value{sqldb.NewInt(id), sqldb.NewInt(id)}}); err != nil {
					errs <- err
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
	res := db.MustExec("SELECT COUNT(*) FROM t", nil)
	if got := res.Set.Rows[0][0].Int(); got != workers*25 {
		t.Fatalf("rows = %d, want %d", got, workers*25)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	db := sqldb.NewDB()
	srv, err := wire.NewServer(db, wire.ProfileFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Ping(); err == nil {
		t.Fatal("ping after server close must fail")
	}
	conn.Close()
	if err := conn.Ping(); err == nil {
		t.Fatal("ping on closed connection must fail")
	}
	// Double close is fine.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestProfileValidation(t *testing.T) {
	bad := wire.Profile{Name: "bad", PerRowWrite: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative profile must fail validation")
	}
	if _, err := wire.NewServer(sqldb.NewDB(), bad, nil); err == nil {
		t.Fatal("server must reject invalid profile")
	}
	for _, name := range []string{"access", "oracle7", "mssql", "postgres", "fast"} {
		p, ok := wire.ByName(name)
		if !ok || p.Name != name {
			t.Errorf("ByName(%s) = %v %v", name, p, ok)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("built-in profile %s invalid: %v", name, err)
		}
	}
	if _, ok := wire.ByName("db2"); ok {
		t.Error("unknown profile resolved")
	}
}

func TestProfileRatiosPreserveThePaperOrdering(t *testing.T) {
	// Per-record insertion cost ordering: access < mssql ≈ postgres < oracle,
	// with oracle roughly 2× the mssql cost (Section 5). Text-protocol
	// insertion compiles every statement, so PerPrepare is part of the cost.
	cost := func(p wire.Profile) time.Duration {
		return p.RoundTrip + p.PerPrepare + p.PerStatement + p.PerRowWrite
	}
	a, o, m, pg := cost(wire.ProfileAccess), cost(wire.ProfileOracle), cost(wire.ProfileMSSQL), cost(wire.ProfilePostgres)
	if !(a < m && m <= pg && pg < o) {
		t.Fatalf("ordering violated: access=%v mssql=%v postgres=%v oracle=%v", a, m, pg, o)
	}
	ratio := float64(o) / float64(m)
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("oracle/mssql = %.2f, want ≈2", ratio)
	}
}

// TestWireValueRoundTrip: every kind of value crosses the codec and comes
// back the value it was.
func TestWireValueRoundTrip(t *testing.T) {
	codec := wire.NewCodec(new(bytes.Buffer))
	f := func(i int64, fv float64, s string, b bool) bool {
		vals := []sqldb.Value{
			sqldb.NewInt(i), sqldb.NewFloat(fv), sqldb.NewText(s), sqldb.NewBool(b), sqldb.Null,
		}
		if err := codec.WriteRequest(&wire.Request{Pos: vals}); err != nil {
			t.Fatal(err)
		}
		req, err := codec.ReadRequest()
		if err != nil {
			t.Fatal(err)
		}
		return reflect.DeepEqual(bitwise(req.Pos), bitwise(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDelayPrecision(t *testing.T) {
	start := time.Now()
	wire.Delay(300 * time.Microsecond)
	elapsed := time.Since(start)
	if elapsed < 300*time.Microsecond {
		t.Fatalf("Delay returned early: %v", elapsed)
	}
	if elapsed > 5*time.Millisecond {
		t.Fatalf("Delay wildly overshot: %v", elapsed)
	}
	wire.Delay(0) // must not block
}

func TestProfiledEmbedded(t *testing.T) {
	db := sqldb.NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER)", nil)
	pe := godbc.Embedded{DB: db, Profile: wire.ProfileAccess}
	res, err := pe.Exec("INSERT INTO t (id) VALUES (1), (2)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Fatalf("affected: %d", res.Affected)
	}
	set, err := pe.ExecQuery("SELECT COUNT(*) FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Rows[0][0].Int() != 2 {
		t.Fatalf("count: %v", set.Rows[0][0])
	}
	if _, err := pe.ExecQuery("INSERT INTO t (id) VALUES (3)", nil); err == nil {
		t.Fatal("ExecQuery of a non-query must fail")
	}
	// The one thing a profile changes besides what is charged: a serial
	// local driver must not have its spun delays overlapped by workers. An
	// uncharged Embedded — no profile, or one without in-process costs — is
	// the engine itself, and that is safe to share.
	if pe.ConcurrentQuery() {
		t.Error("a charging Embedded advertises concurrent querying")
	}
	for _, free := range []wire.Profile{{}, wire.ProfileFast, {Name: "remote only", RoundTrip: time.Millisecond}} {
		if !(godbc.Embedded{DB: db, Profile: free}).ConcurrentQuery() {
			t.Errorf("Embedded with the uncharged profile %q does not advertise concurrent querying", free.Name)
		}
	}
}

func TestCursorQueryAdapter(t *testing.T) {
	db, conn := startPair(t, wire.ProfileFast)
	db.MustExec("CREATE TABLE t (id INTEGER)", nil)
	db.MustExec("INSERT INTO t (id) VALUES (1), (2), (3)", nil)
	cq := godbc.CursorQuery{Conn: conn}
	set, err := cq.ExecQuery("SELECT id FROM t ORDER BY id", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 3 || set.Rows[2][0].Int() != 3 {
		t.Fatalf("rows: %v", set.Rows)
	}
}
