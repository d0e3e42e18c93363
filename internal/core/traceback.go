package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"heterosw/internal/alphabet"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
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

// AlignmentDetail is the traceback decoration of one hit, and the element
// a shard node's /shard/align answer carries (with a shard-local index).
type AlignmentDetail struct {
	// SeqIndex is the subject's database index (caller order), matching
	// Hit.SeqIndex.
	SeqIndex int `json:"index"`
	// Score is the traceback score; it always equals the kernel score of
	// the same pair (the executor verifies and fails otherwise).
	Score int32 `json:"score"`
	// QueryStart/QueryEnd and SubjectStart/SubjectEnd delimit the aligned
	// segments as half-open residue ranges.
	QueryStart   int `json:"query_start"`
	QueryEnd     int `json:"query_end"`
	SubjectStart int `json:"subject_start"`
	SubjectEnd   int `json:"subject_end"`
	// CIGAR is the alignment path in run-length notation ("12M2D5M");
	// Identities counts exactly-matching columns and Columns the total
	// alignment length.
	CIGAR      string `json:"cigar"`
	Identities int    `json:"identities"`
	Columns    int    `json:"columns"`
}

// ShardBackend is a Backend of a pre-cut shard assignment
// (NewDispatcherShards), which also runs the tracebacks of its shard: given
// the shard it owns (shardDBs[i]) and hits whose SeqIndex values are
// shard-local caller indices, AlignShard returns one AlignmentDetail per
// hit, in hits order, with shard-local SeqIndex. The remote backend
// implements it by fanning the traceback out to the node that holds the
// shard.
type ShardBackend interface {
	Backend
	AlignShard(ctx context.Context, query *sequence.Sequence, shard *seqdb.Database, hits []Hit, opt SearchOptions) ([]AlignmentDetail, error)
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

// AlignHits runs the traceback phase. A local dispatcher re-aligns the K
// hits on the host, over the parent database, with the search's worker
// count; a pre-cut shard assignment routes each hit to the backend owning
// its subject's shard (alignHitsSharded). Results are returned in hits
// order. ctx is checked before every traceback, a failure aborts the
// remaining ones, and the traceback counts are folded into the dispatcher's
// cumulative totals.
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
	if d.owner != nil {
		return d.alignHitsSharded(ctx, query, hits, opt)
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
	// The host ran them all; with several local backends (tests only) the
	// first one stands for it.
	d.commitTracebacks(0, int64(len(hits)))
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

// alignHitsSharded is the traceback phase over a pre-cut shard assignment:
// each hit is routed to the backend owning its subject's shard, one
// concurrent launch per backend with work, which runs the tracebacks where
// the shard lives (the remote node). Results return in hits order with
// parent SeqIndex values, so callers see exactly AlignHits' contract.
func (d *Dispatcher) alignHitsSharded(ctx context.Context, query *sequence.Sequence, hits []Hit, opt DispatchOptions) ([]AlignmentDetail, error) {
	per := make([][]int, len(d.backends)) // positions in hits, per owning backend
	for pos, h := range hits {
		if h.SeqIndex < 0 || h.SeqIndex >= d.db.Len() {
			return nil, fmt.Errorf("core: hit %d references sequence %d outside the %d-sequence database", pos, h.SeqIndex, d.db.Len())
		}
		ref := d.owner[h.SeqIndex]
		per[ref.backend] = append(per[ref.backend], pos)
	}
	details := make([]AlignmentDetail, len(hits))
	errs := make([]error, len(d.backends))
	var wg sync.WaitGroup
	for i, b := range d.aligners {
		if len(per[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, b ShardBackend) {
			defer wg.Done()
			positions := per[i]
			local := make([]Hit, len(positions))
			for k, pos := range positions {
				h := hits[pos]
				local[k] = Hit{SeqIndex: d.owner[h.SeqIndex].local, ID: h.ID, Score: h.Score}
			}
			ds, err := b.AlignShard(ctx, query, d.shards[i], local, opt.Search)
			if err != nil {
				errs[i] = err
				return
			}
			if len(ds) != len(positions) {
				errs[i] = fmt.Errorf("core: backend %s returned %d alignments for %d hits", b.Name(), len(ds), len(positions))
				return
			}
			for k, pos := range positions {
				det := ds[k]
				det.SeqIndex = hits[pos].SeqIndex // shard-local -> parent
				details[pos] = det
			}
		}(i, b)
	}
	wg.Wait()
	if err := firstErr(errs...); err != nil {
		return nil, err
	}
	for i := range per {
		d.commitTracebacks(i, int64(len(per[i])))
	}
	return details, nil
}

// commitTracebacks folds n tracebacks run by one backend into the
// cumulative totals.
func (d *Dispatcher) commitTracebacks(backend int, n int64) {
	d.totalsMu.Lock()
	defer d.totalsMu.Unlock()
	d.totals[backend].Tracebacks += n
}
