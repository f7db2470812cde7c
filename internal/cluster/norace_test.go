//go:build !race

package cluster

import (
	"context"
	"testing"
)

// TestRouterPredictAllocCeiling pins what one routed Predict allocates
// with no tracer. The five are the fake backend's answer: the router's
// failover walk fills stack arrays, and an unsampled request allocates
// nothing for its trace, so an attempt span's name is built only when
// the request is traced. The race detector adds allocations of its
// own, so this runs only in a plain build.
func TestRouterPredictAllocCeiling(t *testing.T) {
	r, _ := newFakeCluster(t, Config{}, 2)
	ctx := context.Background()
	const sql = "SELECT COUNT(*) FROM t"
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.Predict(ctx, "imdb", "m", sql); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("routed Predict allocates %.1f times per request, ceiling 5", allocs)
	}
}
