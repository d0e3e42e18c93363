package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"heterosw/internal/alphabet"
	"heterosw/internal/sched"
	"heterosw/internal/sequence"
	"heterosw/internal/swalign"
)

// The traceback executor is the second phase of aligned-hit reporting: the
// vectorised score pass of Algorithm 1/2 selects the top-K hits, then the
// query is re-aligned against just those K database sequences with the
// dynamic-programming recurrence and backtracking (the paper's Section II,
// steps 1-4), recovering coordinates, the CIGAR path and identity counts.
// This is the SSW Library's score-then-traceback two-phase design: the
// O(query x database) bulk runs score-only on the fast kernels, and the
// O(query x subject) tracebacks are paid for K subjects, never the whole
// database.

// AlignmentDetail is the traceback decoration of one hit.
type AlignmentDetail struct {
	// SeqIndex is the subject's database index (caller order), matching
	// Hit.SeqIndex.
	SeqIndex int
	// Score is the traceback score; it always equals the kernel score of
	// the same pair (the executor verifies and fails otherwise).
	Score int32
	// QueryStart/QueryEnd and SubjectStart/SubjectEnd delimit the aligned
	// segments as half-open residue ranges.
	QueryStart   int
	QueryEnd     int
	SubjectStart int
	SubjectEnd   int
	// CIGAR is the alignment path in run-length notation ("12M2D5M");
	// Identities counts exactly-matching columns and Columns the total
	// alignment length.
	CIGAR      string
	Identities int
	Columns    int
}

// scoringFor derives the reference-alignment scoring from the search
// options and the database alphabet, so phase two scores under exactly the
// matrix and gap penalties phase one searched with.
func scoringFor(opt SearchOptions, alpha *alphabet.Alphabet) swalign.Scoring {
	return swalign.Scoring{
		Matrix:    opt.matrixFor(alpha),
		GapOpen:   opt.Params.GapOpen,
		GapExtend: opt.Params.GapExtend,
	}
}

// AlignHits runs the traceback phase: it re-aligns the K hits on this
// host, over the dispatcher's database with the search's worker count,
// and checks every traceback score against the hit's kernel score. On a
// coordinator that database is the parent index, so no hit goes back to
// the node that scored it. Results are returned in hits order. ctx is
// checked before every traceback, a failure aborts the remaining ones,
// and the traceback count is folded into the dispatcher's cumulative
// totals.
func (d *Dispatcher) AlignHits(ctx context.Context, query *sequence.Sequence, hits []Hit, opt DispatchOptions) ([]AlignmentDetail, error) {
	if query == nil {
		return nil, fmt.Errorf("core: nil query")
	}
	if err := opt.Search.Params.Validate(); err != nil {
		return nil, err
	}
	if len(hits) == 0 {
		return nil, nil
	}
	sc := scoringFor(opt.Search, d.db.Alphabet())
	details := make([]AlignmentDetail, len(hits))
	errs := make([]error, len(hits))
	// A failure flips failed, so the other workers stop at their next hit
	// instead of burning full DP tracebacks on a doomed phase.
	var failed atomic.Bool
	sched.Parallel(len(hits), opt.Search.Workers, func(i, _ int) {
		if failed.Load() {
			return
		}
		if errs[i] = ctx.Err(); errs[i] == nil {
			details[i], errs[i] = d.alignOnHost(query, hits[i], i, sc)
		}
		if errs[i] != nil {
			failed.Store(true)
		}
	})
	if err := firstErr(errs...); err != nil {
		return nil, err
	}
	d.commitTracebacks(int64(len(hits)))
	return details, nil
}

// alignOnHost re-aligns the query against one hit's subject with the
// reference alignment (swalign.Align), which needs only the parent database,
// and checks the traceback score against the kernel's.
func (d *Dispatcher) alignOnHost(query *sequence.Sequence, h Hit, pos int, sc swalign.Scoring) (AlignmentDetail, error) {
	if h.SeqIndex < 0 || h.SeqIndex >= d.db.Len() {
		return AlignmentDetail{}, fmt.Errorf("core: hit %d references sequence %d outside the %d-sequence database", pos, h.SeqIndex, d.db.Len())
	}
	subject := d.db.Seq(h.SeqIndex)
	al := swalign.Align(query.Residues, subject.Residues, sc)
	if int32(al.Score) != h.Score {
		return AlignmentDetail{}, fmt.Errorf("core: traceback score %d for %s disagrees with kernel score %d", al.Score, subject.ID, h.Score)
	}
	return AlignmentDetail{
		SeqIndex:     h.SeqIndex,
		Score:        int32(al.Score),
		QueryStart:   al.AStart,
		QueryEnd:     al.AEnd,
		SubjectStart: al.BStart,
		SubjectEnd:   al.BEnd,
		CIGAR:        al.CIGAR(),
		Identities:   al.Identities,
		Columns:      len(al.Ops),
	}, nil
}

// commitTracebacks folds n tracebacks run on this host into the
// cumulative totals.
func (d *Dispatcher) commitTracebacks(n int64) {
	d.totalsMu.Lock()
	defer d.totalsMu.Unlock()
	d.tracebacks += n
}
