package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// Replay drives the boundaries below godbc with exactly what recorded ops
// sent through it, with nothing else in the way: the engine through
// sqldb.DB.Prepare and PreparedStmt.ExecuteBatch, and the wire codec through
// wire.NewCodec over an in-memory buffer. What a godbc call cost beyond the
// two, and beyond the vendor delay the server charged, is godbc's own:
// driver, value conversion, TCP and pool.

// replayPasses is how many timed passes follow the warm-up pass; the median
// pass is reported.
const replayPasses = 3

func replay(spec workloadSpec, g *model.Graph, calls []call, layers map[string]float64) error {
	if len(calls) == 0 {
		return fmt.Errorf("replay: no executor call was recorded")
	}
	ops := make(map[int]bool)
	for _, c := range calls {
		ops[c.op] = true
	}
	if err := replayEngine(spec, g, calls, float64(len(ops)), layers); err != nil {
		return err
	}
	if spec.Wire {
		return replayCodec(calls, float64(len(ops)), spec.CacheOn, layers)
	}
	return nil
}

// replayEngine executes the recorded statements on a fresh engine set up as
// the workload's: same data, same result-cache setting. A first pass warms
// it the way the workload's warm-up does, so a cache-on workload replays
// cache hits and the tuning cycle replays its invalidations.
func replayEngine(spec workloadSpec, g *model.Graph, calls []call, ops float64, layers map[string]float64) error {
	db, _, err := newLoadedDB(g, spec.CacheOn)
	if err != nil {
		return err
	}
	handles := make(map[string]*sqldb.PreparedStmt)
	var prepare []float64
	type passCost struct {
		exec, update, delete, insert time.Duration
		inserts                      int
	}
	pass := func() (passCost, error) {
		var cost passCost
		for _, c := range calls {
			t0 := time.Now()
			switch c.name {
			case spanPrepare:
				// Over the wire a statement is prepared once per
				// connection and the handle reused by every later op, so
				// there it costs an op nothing; godbc.Embedded prepares
				// anew for every analysis.
				if spec.Wire && handles[c.sql] != nil {
					continue
				}
				ps, err := db.Prepare(c.sql)
				if err != nil {
					return cost, err
				}
				d := time.Since(t0)
				prepare = append(prepare, us(d))
				if old := handles[c.sql]; old != nil {
					old.Close()
				}
				handles[c.sql] = ps
				if !spec.Wire {
					cost.exec += d
				}
			case spanBatch:
				results, err := handles[c.sql].ExecuteBatch(c.bindings)
				if err != nil {
					return cost, err
				}
				for _, r := range results {
					if r.Err != nil {
						return cost, r.Err
					}
				}
				cost.exec += time.Since(t0)
			case spanQuery:
				if _, err := handles[c.sql].Execute(c.bindings[0]); err != nil {
					return cost, err
				}
				cost.exec += time.Since(t0)
			default:
				if _, err := db.Exec(c.sql, c.bindings[0]); err != nil {
					return cost, err
				}
				d := time.Since(t0)
				cost.exec += d
				switch c.name {
				case spanUpdate:
					cost.update += d
				case spanDelete:
					cost.delete += d
				case spanInsert:
					cost.insert += d
					cost.inserts++
				}
			}
		}
		return cost, nil
	}
	if _, err := pass(); err != nil {
		return fmt.Errorf("replay warm-up: %w", err)
	}
	var exec, update, del, insert []float64
	for range replayPasses {
		cost, err := pass()
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		exec = append(exec, ms(cost.exec)/ops)
		update = append(update, ms(cost.update)/ops)
		del = append(del, ms(cost.delete)/ops)
		if cost.inserts > 0 {
			insert = append(insert, us(cost.insert)/float64(cost.inserts))
		}
	}
	layers["sqldb.prepare_us_per_stmt"] = median(prepare)
	layers["sqldb.exec_ms_per_op"] = median(exec)
	layers["sqldb.update_ms"] = median(update)
	layers["sqldb.delete_ms"] = median(del)
	layers["sqldb.insert_us_per_row"] = median(insert)
	return nil
}

// countingBuffer is the stream the codec replay writes to and reads from.
type countingBuffer struct {
	bytes.Buffer
	written int
}

func (b *countingBuffer) Write(p []byte) (int, error) {
	b.written += len(p)
	return b.Buffer.Write(p)
}

// exchange is one request/response pair as godbc and the wire server put
// them on the stream.
type exchange struct {
	req  *wire.Request
	resp *wire.Response
}

// toExchange rebuilds the frames of one recorded call. The frames themselves
// never leave godbc, so they are reconstructed the way godbc encodes a call
// and the server encodes its answer: a batch as one ReqExecBatch with a
// binding per parameter set and an item per result, a DML statement as a
// text ReqExec.
func toExchange(c call, stmtID int64, cached bool) exchange {
	if c.name != spanBatch {
		req := &wire.Request{Kind: wire.ReqExec, SQL: c.sql}
		req.Pos, req.Named = wireParams(c.bindings[0])
		resp := &wire.Response{Affected: c.affected, Done: true}
		if len(c.sets) == 1 && c.sets[0] != nil {
			req.Kind, req.SQL, req.StmtID = wire.ReqExecPrepared, "", stmtID
			resp.Columns, resp.Rows = c.sets[0].Columns, wireRows(c.sets[0].Rows)
		}
		return exchange{req, resp}
	}
	req := &wire.Request{Kind: wire.ReqExecBatch, StmtID: stmtID, Batch: make([]wire.BatchBinding, len(c.bindings))}
	resp := &wire.Response{Items: make([]wire.BatchItem, len(c.sets)), Done: true}
	for i, p := range c.bindings {
		req.Batch[i].Pos, req.Batch[i].Named = wireParams(p)
	}
	for i, set := range c.sets {
		if set == nil {
			continue
		}
		resp.Items[i] = wire.BatchItem{Columns: set.Columns, Rows: wireRows(set.Rows), Cached: cached}
		if cached {
			resp.CacheHits++
		}
	}
	return exchange{req, resp}
}

func wireParams(p *sqldb.Params) (pos []wire.WireValue, named map[string]wire.WireValue) {
	if p == nil {
		return nil, nil
	}
	for _, v := range p.Positional {
		pos = append(pos, wire.ToWire(v))
	}
	if len(p.Named) > 0 {
		named = make(map[string]wire.WireValue, len(p.Named))
		for k, v := range p.Named {
			named[k] = wire.ToWire(v)
		}
	}
	return pos, named
}

func wireRows(rows []sqldb.Row) [][]wire.WireValue {
	out := make([][]wire.WireValue, len(rows))
	for i, r := range rows {
		out[i] = make([]wire.WireValue, len(r))
		for j, v := range r {
			out[i][j] = wire.ToWire(v)
		}
	}
	return out
}

// replayCodec sends the recorded ops' frames through one long-lived codec,
// as a pooled connection would: request encoded and decoded, response
// encoded and decoded. Both ends of the wire run in the benchmark process,
// so both ends' codec work is in cpu_ms_per_op.
func replayCodec(calls []call, ops float64, cached bool, layers map[string]float64) error {
	stmtIDs := make(map[string]int64)
	var frames []exchange
	for _, c := range calls {
		if c.name == spanPrepare {
			continue
		}
		id, ok := stmtIDs[c.sql]
		if !ok {
			id = int64(len(stmtIDs) + 1)
			stmtIDs[c.sql] = id
		}
		frames = append(frames, toExchange(c, id, cached))
	}
	buf := &countingBuffer{}
	codec := wire.NewCodec(buf)
	pass := func() (enc, dec time.Duration, err error) {
		for _, f := range frames {
			t0 := time.Now()
			if err = codec.WriteRequest(f.req); err != nil {
				return
			}
			t1 := time.Now()
			if _, err = codec.ReadRequest(); err != nil {
				return
			}
			t2 := time.Now()
			if err = codec.WriteResponse(f.resp); err != nil {
				return
			}
			t3 := time.Now()
			if _, err = codec.ReadResponse(); err != nil {
				return
			}
			t4 := time.Now()
			enc += t1.Sub(t0) + t3.Sub(t2)
			dec += t2.Sub(t1) + t4.Sub(t3)
		}
		return
	}
	// The first pass also carries gob's one-off type descriptors.
	if _, _, err := pass(); err != nil {
		return fmt.Errorf("codec replay warm-up: %w", err)
	}
	var encs, decs, sizes []float64
	for range replayPasses {
		before := buf.written
		enc, dec, err := pass()
		if err != nil {
			return fmt.Errorf("codec replay: %w", err)
		}
		encs = append(encs, ms(enc)/ops)
		decs = append(decs, ms(dec)/ops)
		sizes = append(sizes, float64(buf.written-before)/ops)
	}
	layers["wire.encode_ms_per_op"] = median(encs)
	layers["wire.decode_ms_per_op"] = median(decs)
	layers["wire.bytes_per_op"] = median(sizes)
	return nil
}
