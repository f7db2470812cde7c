package cluster

import (
	"context"
	"errors"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// TestRouterWhatIfRoutesToOwner: sweeps route owner-first like
// predictions, the one routing rule for per-database calls.
func TestRouterWhatIfRoutesToOwner(t *testing.T) {
	r, backs := newFakeCluster(t, Config{}, 3)
	ctx := context.Background()
	req := whatif.Request{SQL: []string{"SELECT COUNT(*) FROM t"}, Candidates: []string{"t.a"}}
	for _, db := range []string{"imdb", "ssb", "tpch"} {
		owner := r.Owner(db)
		before := backs[owner].whatifCount()
		rep, err := r.WhatIf(ctx, db, "m", req)
		if err != nil {
			t.Fatalf("WhatIf(%s): %v", db, err)
		}
		if rep.Database != db || len(rep.Variants) != 1 {
			t.Fatalf("report = %+v", rep)
		}
		if got := backs[owner].whatifCount(); got != before+1 {
			t.Fatalf("db %s: owner %s whatif count %d, want %d", db, owner, got, before+1)
		}
	}
}

func TestRouterWhatIfFailsOver(t *testing.T) {
	r, backs := newFakeCluster(t, Config{}, 3)
	ctx := context.Background()
	const db = "imdb"
	seq := r.Route(db)
	owner, second := seq[0], seq[1]
	backs[owner].setDown(true)

	req := whatif.Request{SQL: []string{"SELECT COUNT(*) FROM t"}, Candidates: []string{"t.a"}}
	rep, err := r.WhatIf(ctx, db, "m", req)
	if err != nil {
		t.Fatalf("WhatIf with downed owner: %v", err)
	}
	// The scripted answer is a pure function of (db, sql), so failover
	// must not change the baseline.
	want := fakePrediction(db, "m", req.SQL[0]).RuntimeSec
	if rep.Baseline.TotalSec != want {
		t.Fatalf("failover changed the sweep: %v vs %v", rep.Baseline.TotalSec, want)
	}
	if got := backs[second].whatifCount(); got != 1 {
		t.Fatalf("successor %s served %d sweeps, want 1", second, got)
	}

	// A database no replica owns walks the ring and surfaces the serving
	// error class intact, so front ends still map it to 404.
	backs[owner].setDown(false)
	if errs := r.CheckHealth(ctx); errs[owner] != nil {
		t.Fatal(errs[owner])
	}
	for _, b := range backs {
		b.dbs["somedb"] = true
	}
	if _, err := r.WhatIf(ctx, "unknown", "m", req); !errors.Is(err, serving.ErrNotFound) {
		t.Fatalf("unknown-db sweep err = %v, want serving.ErrNotFound", err)
	}
}
