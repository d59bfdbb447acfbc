package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The parallel evaluation pipeline. Property instances are independent of
// one another — like the passes of an iterative-refinement procedure, the
// work within one analysis is embarrassingly parallel and only the final
// ranking is a synchronization point — so the analyzer fans the
// (property × context) items of a run out across a bounded worker pool and
// writes each Instance into its pre-assigned slot. Because the slot order is
// exactly the serial enumeration order and the final ranking sort is stable,
// the parallel Report renders byte-identical to the serial one.

// WithWorkers sets the evaluation worker count: n > 1 evaluates property
// instances concurrently, n = 1 forces the serial path, and n <= 0 selects
// runtime.GOMAXPROCS(0), the default.
func WithWorkers(n int) Option { return func(a *Analyzer) { a.workers = n } }

// SetWorkers changes the evaluation worker count after construction; the
// value is interpreted as in WithWorkers.
func (a *Analyzer) SetWorkers(n int) { a.workers = n }

// Workers returns the effective worker count used for an analysis.
func (a *Analyzer) Workers() int { return Workers(a.workers) }

// Workers resolves a worker count as WithWorkers takes it to the number of
// workers an analysis really runs: n <= 0 is runtime.GOMAXPROCS(0). Whoever
// sizes a connection pool for analyses sizes it by this, not by n.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ConcurrentQuerier is implemented by query executors that are safe for
// concurrent use — godbc.Pool, godbc.ShardedDB, and a godbc.Embedded that
// charges no vendor profile. The SQL engines fall back to a single worker for
// executors that do not advertise concurrency (a bare godbc.Conn is one socket
// with an ordered protocol, like a JDBC Connection; a profiled Embedded is one
// serial local driver).
type ConcurrentQuerier interface {
	ConcurrentQuery() bool
}

// concurrentQueryExec reports whether q may be shared by several workers.
func concurrentQueryExec(q QueryExec) bool {
	cq, ok := q.(ConcurrentQuerier)
	return ok && cq.ConcurrentQuery()
}

// queryWorkers caps the worker count for a SQL analysis at 1 unless the
// executor is safe for concurrent use.
func (a *Analyzer) queryWorkers(q QueryExec) int {
	if w := a.Workers(); w <= 1 || concurrentQueryExec(q) {
		return w
	}
	return 1
}

// runPool executes fn(worker, i) for every i in [0, n) on a bounded pool of
// workers. Items are handed out through an atomic cursor, so the pool is
// naturally load-balanced: a worker that draws an expensive instance does
// not delay the queue behind it. With one worker (or one item) everything
// runs inline on the caller's goroutine — the exact serial code path.
//
// fn must record its outcome into a pre-assigned slot (diagnostics included)
// rather than return an error; this keeps the merged result independent of
// scheduling order.
func runPool(workers, n int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}
