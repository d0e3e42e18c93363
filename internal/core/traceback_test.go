package core

import (
	"context"
	"math/rand"
	"testing"

	"heterosw/internal/device"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
)

func tracebackDispatcher(t *testing.T, seqs int) (*Dispatcher, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	db := randDB(rng, seqs, 80, true)
	backends := []Backend{
		NewBackend("xeon#0", device.Xeon(), 0),
		NewBackend("phi#1", device.Phi(), 0),
	}
	d, err := NewDispatcher(db, backends)
	if err != nil {
		t.Fatal(err)
	}
	return d, rng
}

func TestAlignHitsMatchesOracle(t *testing.T) {
	d, rng := tracebackDispatcher(t, 40)
	query := randProtein(rng, 50)
	opt := DispatchOptions{Search: SearchOptions{
		Params: Params{Variant: IntrinsicSP, GapOpen: 10, GapExtend: 2, Blocked: true},
		TopK:   8,
	}}
	res, err := d.Search(query, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 8 {
		t.Fatalf("%d hits, want 8", len(res.Hits))
	}
	details, err := d.AlignHits(context.Background(), query, res.Hits, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(details) != len(res.Hits) {
		t.Fatalf("%d details for %d hits", len(details), len(res.Hits))
	}
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}
	for i, det := range details {
		h := res.Hits[i]
		if det.SeqIndex != h.SeqIndex || det.Score != h.Score {
			t.Fatalf("detail %d is {seq %d, score %d}, hit is {seq %d, score %d}",
				i, det.SeqIndex, det.Score, h.SeqIndex, h.Score)
		}
		want := swalign.Align(query.Residues, d.DB().Seq(h.SeqIndex).Residues, sc)
		if det.CIGAR != want.CIGAR() || det.Identities != want.Identities ||
			det.QueryStart != want.AStart || det.QueryEnd != want.AEnd ||
			det.SubjectStart != want.BStart || det.SubjectEnd != want.BEnd ||
			det.Columns != len(want.Ops) {
			t.Fatalf("detail %d = %+v, oracle CIGAR %s [%d:%d]x[%d:%d]",
				i, det, want.CIGAR(), want.AStart, want.AEnd, want.BStart, want.BEnd)
		}
	}
	// The traceback phase is accounted: alignments land in the cumulative
	// totals, and only K were ever run.
	if _, tb, _ := d.Totals(); tb != int64(len(res.Hits)) {
		t.Fatalf("totals record %d tracebacks, want %d", tb, len(res.Hits))
	}
}

func TestAlignHitsEmptyAndErrors(t *testing.T) {
	d, rng := tracebackDispatcher(t, 35)
	query := randProtein(rng, 30)
	opt := DispatchOptions{Search: SearchOptions{
		Params: Params{Variant: IntrinsicSP, GapOpen: 10, GapExtend: 2},
	}}
	if det, err := d.AlignHits(context.Background(), query, nil, opt); err != nil || det != nil {
		t.Fatalf("empty hits: %v, %v", det, err)
	}
	if _, err := d.AlignHits(context.Background(), nil, nil, opt); err == nil {
		t.Fatal("nil query accepted")
	}
	// A hit referencing a sequence outside the database must fail, not
	// panic.
	if _, err := d.AlignHits(context.Background(), query, []Hit{{SeqIndex: 10000}}, opt); err == nil {
		t.Fatal("out-of-range hit accepted")
	}
	// A hit whose claimed score disagrees with the traceback is a kernel
	// bug; the executor must surface it.
	if _, err := d.AlignHits(context.Background(), query, []Hit{{SeqIndex: 0, Score: -1}}, opt); err == nil {
		t.Fatal("score mismatch not detected")
	}
	// A cancelled context aborts the phase.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := d.Search(query, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AlignHits(ctx, query, res.Hits[:3], opt); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
