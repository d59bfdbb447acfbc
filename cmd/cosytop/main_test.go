package main

import (
	"strings"
	"testing"

	"repro/internal/godbc"
	"repro/internal/service"
	"repro/internal/sqldb"
)

// TestRender: the backend lines of the view — engine, prepared/batch, cache —
// are all fed from the one "backend" section of the snapshot; the fallback
// breakdown appears only when there were fallbacks, and nothing about the
// backend is printed for an executor that reported none.
func TestRender(t *testing.T) {
	engine := sqldb.Stats{
		PlanCacheHits: 3, PlanCacheMisses: 1,
		PreparedLive: 8, Replans: 2, BatchExecs: 64, BatchBindings: 2016,
		ResultCacheHits: 40, ResultCacheMisses: 24, ResultCacheInvalidations: 5, ResultCacheEvictions: 6, ResultCacheEntries: 19,
		VecSelects: 12864,
	}
	withFallbacks := engine
	withFallbacks.VecFallbacks = 6
	withFallbacks.VecFallbackReasons = sqldb.FallbackReasons{Star: 2, OrderExpr: 3, Subquery: 0, Other: 1}

	const (
		engineLine   = "backend  vec 12864 (fallback 0)  plan cache 3/4 hit  65 requests  vendor cost 128ms\n"
		fallbackLine = "backend  fallback reasons  star 2  order-by-expr 3  subquery 0  other 1\n"
		batchLine    = "backend  prepared 8 live (2 replans)  64 batches carrying 2016 bindings\n"
		cacheLine    = "cache  40 hits  24 misses  5 invalidations  6 evictions  19 entries\n"
	)
	for _, tc := range []struct {
		name    string
		backend *godbc.ServerStats
		want    []string // in order, contiguous, ending the output
		absent  []string
	}{
		{"no backend", nil, nil, []string{"backend", "cache"}},
		{"zero fallbacks", &godbc.ServerStats{Stats: engine, Requests: 65, VendorNanos: 128e6},
			[]string{engineLine, batchLine, cacheLine}, []string{"fallback reasons"}},
		{"fallbacks", &godbc.ServerStats{Stats: withFallbacks, Requests: 65, VendorNanos: 128e6},
			[]string{strings.Replace(engineLine, "fallback 0", "fallback 6", 1), fallbackLine, batchLine, cacheLine}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			render(&out, "127.0.0.1:9090", &service.MetricsSnapshot{Backend: tc.backend})
			got := out.String()
			if !strings.HasPrefix(got, "cosyd 127.0.0.1:9090  up 0s  serving") {
				t.Errorf("header missing:\n%s", got)
			}
			if want := strings.Join(tc.want, ""); !strings.HasSuffix(got, want) {
				t.Errorf("backend lines:\n got %q\nwant suffix %q", got, want)
			}
			for _, s := range tc.absent {
				if strings.Contains(got, s) {
					t.Errorf("output mentions %q:\n%s", s, got)
				}
			}
		})
	}
}
