package heterosw

import (
	"context"
	"errors"
	"testing"
)

// prepared validates a request on the cluster, failing the test if the
// doors would refuse it.
func prepared(t *testing.T, cl *Cluster, req Request) job {
	t.Helper()
	jb, err := cl.prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	return jb
}

// TestSearchContextCancelled proves a dead caller aborts the whole search:
// a pre-cancelled context fails the executor's score pass before it starts
// with context.Canceled, not a partial result.
func TestSearchContextCancelled(t *testing.T) {
	db, _ := tinyDB(t)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jb := prepared(t, cl, Request{Query: NewSequence("q", "MKWVLA")})
	res, err := cl.execute(ctx, jb)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled search returned results: %+v", res)
	}
}

// TestDecorateCancelled pins the reporting phase specifically: a context
// cancelled after the score pass aborts the traceback fan-out (AlignHits
// workers check ctx at every queue pop) instead of re-aligning the hits.
func TestDecorateCancelled(t *testing.T) {
	db, _ := tinyDB(t)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewSequence("q", "MKWVLA")
	jb := prepared(t, cl, Request{Query: q, Report: ReportOptions{Alignments: true}})
	r, err := cl.engine().SearchContext(context.Background(), jb.queries, cl.dopt, jb.k)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = cl.decorate(ctx, cl.engine(), cl.dopt, &jb, r)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled decorate: err = %v, want context.Canceled", err)
	}
	// The same call with a live context succeeds, so the failure above is
	// the cancellation, not the inputs.
	res, err := cl.decorate(context.Background(), cl.engine(), cl.dopt, &jb, r)
	if err != nil {
		t.Fatalf("live decorate: %v", err)
	}
	for _, h := range res.Hits {
		if h.Alignment == nil {
			t.Fatalf("hit %q missing alignment after live decorate", h.ID)
		}
	}
}

// TestSearchTranslatedContextCancelled covers the translated path: a
// translated job's frames are score passes of their own, so cancellation
// stops the six-frame search at a frame boundary too.
func TestSearchTranslatedContextCancelled(t *testing.T) {
	db, _ := tinyDB(t)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jb := prepared(t, cl, Request{Query: NewDNASequence("d", "ATGAAATGGGTACTGGCT"), Translate: true})
	if len(jb.frames) != 6 || len(jb.queries) != 6 {
		t.Fatalf("%d frames and %d queries, want 6", len(jb.frames), len(jb.queries))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.execute(ctx, jb); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled translated search: err = %v, want context.Canceled", err)
	}
	// Live, the same job merges its six frames into one result.
	res, err := cl.execute(context.Background(), jb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hitScores(db, res); err != nil || res.Hits[0].Frame == 0 {
		t.Fatalf("translated result: %+v", res)
	}
}
