package core

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"heterosw/internal/alphabet"
	"heterosw/internal/profile"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/swalign"
	"heterosw/internal/vec"
)

// The traceback executor is the second phase of aligned-hit reporting: the
// vectorised score pass of Algorithm 1/2 selects the top-K hits, then the
// query is re-aligned against just those K database sequences with the
// dynamic-programming recurrence and backtracking (the paper's Section II,
// steps 1-4), recovering coordinates, the CIGAR path and identity counts.
// This is the SSW Library's score-then-traceback two-phase design: the
// O(query x database) bulk runs score-only on the fast kernels, and the
// O(query x subject) tracebacks are paid for K subjects, never the whole
// database. Where SSW traces its hits back with scalar code, the
// re-alignment here scores the K subjects in 16-bit inter-sequence lanes
// (SWAPHI's layout, the ladder's 16-bit rung), and only the walk back
// along each path, over the column blocks it crosses, is scalar.

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

// Scoring derives the reference-alignment scoring from the search options
// and an alphabet, so phase two scores under exactly the matrix and gap
// penalties phase one searched with, and a pairwise alignment under what a
// search with the same options would.
func (o SearchOptions) Scoring(alpha *alphabet.Alphabet) swalign.Scoring {
	return swalign.Scoring{
		Matrix:    o.matrixFor(alpha),
		GapOpen:   o.Params.GapOpen,
		GapExtend: o.Params.GapExtend,
	}
}

// ScoringID fingerprints the scores a search of an alpha database under o
// computes: a short hash of the resolved matrix's Fingerprint and the gap
// penalties. A shard node sends its own with every answer, and a
// coordinator refuses an answer that does not carry its own.
func (o SearchOptions) ScoringID(alpha *alphabet.Alphabet) string {
	sc := o.Scoring(alpha)
	sum := sha256.Sum256(fmt.Appendf(nil, "%s|%d|%d", sc.Matrix.Fingerprint(), sc.GapOpen, sc.GapExtend))
	return hex.EncodeToString(sum[:8])
}

// checkpointEvery is C, the column spacing of the lane pass's checkpoints
// and the width of the walk's blocks. A checkpoint holds H and E of every
// row in escLanes int16 lanes, 64 bytes a row, so one every 64 columns
// takes one byte per row and column of the group: no more than the one
// direction byte per cell a single-pair traceback keeps over its
// rectangle. A walk recomputes at most C columns of the rows above it for
// each block it enters.
const checkpointEvery = 64

// AlignHits runs the traceback phase: it re-aligns the K hits on this
// host, over the dispatcher's database, and checks every hit's maximum
// against its kernel score. On a coordinator that database is the parent
// index, so no hit goes back to the node that scored it. Results are
// returned in hits order.
//
// The hits are packed escLanes to a lane group, longest subject first, and
// each group runs once through the 16-bit rung's column step (laneEnds),
// which finds every lane's exact maximum and the row-major-first cell
// holding it, and keeps checkpoint columns; each hit's path is then walked
// back block by block from those checkpoints (swalign.Walker). The output
// is swalign.Align's, byte for byte. A maximum other than the kernel score,
// higher or lower, fails the phase; a lane at the int16 rail is aligned in
// full by swalign.Align, the ladder's top rung. Groups run in parallel
// with the search's worker count, each on a worker's pooled Buffers. ctx
// is checked before every group and every walk, a failure aborts the
// remaining ones, and the traceback count is folded into the dispatcher's
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
	lens := make([]int, len(hits))
	for i, h := range hits {
		if h.SeqIndex < 0 || h.SeqIndex >= d.db.Len() {
			return nil, fmt.Errorf("core: hit %d references sequence %d outside the %d-sequence database", i, h.SeqIndex, d.db.Len())
		}
		lens[i] = d.db.Seq(h.SeqIndex).Len()
	}
	alpha := d.db.Alphabet()
	sc := opt.Search.Scoring(alpha)
	if sc.Matrix.Alphabet() != alpha {
		return nil, fmt.Errorf("core: %s matrix %s against a %s database",
			sc.Matrix.Alphabet().Name(), sc.Matrix.Name(), alpha.Name())
	}
	if qa := query.Alphabet(); qa != alpha {
		return nil, fmt.Errorf("core: %s query %s against a %s database", qa.Name(), query.ID, alpha.Name())
	}
	qp := profile.NewQuery(query.Residues, sc.Matrix)
	order := descending(lens)
	every := cmp.Or(d.blockCols, checkpointEvery)
	details := make([]AlignmentDetail, len(hits))
	errs := make([]error, len(hits))
	groups := (len(hits) + escLanes - 1) / escLanes
	bufs := make([]*Buffers, groups)
	// A failure flips failed, so the other workers stop before their next
	// group instead of burning lane passes on a doomed phase.
	var failed atomic.Bool
	sched.Parallel(groups, opt.Search.Workers, func(gi, w int) {
		if failed.Load() {
			return
		}
		if bufs[w] == nil {
			bufs[w] = d.pool.get(escLanes)
		}
		pos := order[gi*escLanes : min((gi+1)*escLanes, len(order))]
		if !d.traceGroup(ctx, query, qp, sc, opt.Search.Params, every, hits, pos, bufs[w], details, errs) {
			failed.Store(true)
		}
	})
	for _, b := range bufs {
		if b != nil {
			// A long query against a long subject can leave a checkpoint
			// slab of hundreds of megabytes; the pool keeps none that big.
			if cap(b.ck16) > maxPooledCheckpoints {
				b.ck16 = nil
			}
			d.pool.put(b)
		}
	}
	if err := firstErr(errs...); err != nil {
		return nil, err
	}
	d.commitTracebacks(int64(len(hits)))
	return details, nil
}

// maxPooledCheckpoints bounds the checkpoint scratch, in int16 entries, a
// pooled Buffers keeps between tracebacks: 8 MiB, about what a
// 1,000-residue query's group against 8,000-residue subjects takes.
const maxPooledCheckpoints = 4 << 20

// traceGroup traces back the hits at positions pos of hits, at most
// escLanes of them, as one lane group on buf: the lane pass, then each
// lane's check and walk. It reports whether every one traced back.
func (d *Dispatcher) traceGroup(ctx context.Context, query *sequence.Sequence, qp *profile.Query, sc swalign.Scoring, p Params, every int, hits []Hit, pos []int, buf *Buffers, details []AlignmentDetail, errs []error) bool {
	if errs[pos[0]] = ctx.Err(); errs[pos[0]] != nil {
		return false
	}
	// Padding lanes claim -1, which no column maximum equals.
	claim := [escLanes]int32{}
	for k := range claim {
		claim[k] = -1
	}
	for k, i := range pos {
		claim[k] = hits[i].Score
	}
	laneEnds(qp, buf.hitGroup(qp, d.db, hits, pos), p, claim[:], every, buf)
	for k, i := range pos {
		if errs[i] = ctx.Err(); errs[i] == nil {
			details[i], errs[i] = d.traceLane(query, hits[i], k, sc, every, buf)
		}
		if errs[i] != nil {
			return false
		}
	}
	return true
}

// traceLane checks lane k of buf's last lane pass against h's kernel score
// and walks its path back.
func (d *Dispatcher) traceLane(query *sequence.Sequence, h Hit, k int, sc swalign.Scoring, every int, buf *Buffers) (AlignmentDetail, error) {
	subject := d.db.Seq(h.SeqIndex)
	var al swalign.Alignment
	switch top := buf.max16[k]; {
	case top == vec.MaxI16:
		// At the int16 rail the lane's maximum is unknown: the ladder's
		// top rung aligns the pair in full.
		al = *swalign.Align(query.Residues, subject.Residues, sc)
	case int32(top) == h.Score:
		m := len(query.Residues)
		ck := swalign.Checkpoints{Every: every, Span: 2 * m * escLanes, Stride: escLanes, EOff: m * escLanes}
		if len(buf.ck16) > 0 {
			ck.Data = buf.ck16[k:]
		}
		end := buf.ends[k]
		al = buf.walker.Trace(query.Residues, subject.Residues, sc, int(top), end.i, end.j, ck)
	default:
		al.Score = int(top)
	}
	if int32(al.Score) != h.Score {
		return AlignmentDetail{}, fmt.Errorf("core: traceback score %d for %s disagrees with kernel score %d", al.Score, subject.ID, h.Score)
	}
	return AlignmentDetail{
		SeqIndex:     h.SeqIndex,
		Score:        h.Score,
		QueryStart:   al.AStart,
		QueryEnd:     al.AEnd,
		SubjectStart: al.BStart,
		SubjectEnd:   al.BEnd,
		CIGAR:        al.CIGAR(),
		Identities:   al.Identities,
		Columns:      len(al.Ops),
	}, nil
}

// laneEnd is a lane's end cell, 1-based; row 0 while none is found.
type laneEnd struct{ i, j int }

// hitGroup packs the subjects of hits at positions pos into b's hit group,
// lane k holding hits[pos[k]]; the other lanes are empty padding.
//
//sw:hotpath
func (b *Buffers) hitGroup(q *profile.Query, db *seqdb.Database, hits []Hit, pos []int) *seqdb.LaneGroup {
	g := &b.hits
	if g.SeqIdx == nil {
		g.Lanes = escLanes
		g.SeqIdx = make([]int, escLanes)
		g.Lens = make([]int, escLanes)
	}
	g.Width, g.Residues = 0, 0
	for k := 0; k < escLanes; k++ {
		g.SeqIdx[k], g.Lens[k] = -1, 0
		if k < len(pos) {
			n := db.Seq(hits[pos[k]].SeqIndex).Len()
			g.SeqIdx[k], g.Lens[k] = hits[pos[k]].SeqIndex, n
			g.Residues += int64(n)
			g.Width = max(g.Width, n)
		}
	}
	inter := grow8(&g.Interleaved, g.Width*escLanes)
	pad := uint8(q.Pad)
	for i := range inter {
		inter[i] = pad
	}
	for k := range pos {
		for j, c := range db.Seq(hits[pos[k]].SeqIndex).Residues {
			inter[j*escLanes+k] = uint8(c)
		}
	}
	g.Interleaved = inter
	return g
}

// laneEnds is the traceback's lane pass: the 16-bit rung's column step
// over g, which has escLanes lanes, with the whole query as one tile, so
// one slab holds a column's whole state. Lane l ends with its exact
// maximum in b.max16[l], or the rail when it saturated, and with the
// row-major-first cell holding claim[l] in b.ends[l] when one does: the
// cell swalign's scoreEnd returns when claim[l] is the maximum. Each column
// resets a per-lane column maximum and folds it into the running one; a
// lane whose column maximum equals its claim scans that column, above the
// row it holds, for the first row reaching it. After every every-th column
// but the last, the H/E slab is copied to b.ck16 as a checkpoint for the
// walks (swalign.Checkpoints: H rows, then E rows, escLanes lanes a row).
//
//sw:hotpath
func laneEnds(q *profile.Query, g *seqdb.LaneGroup, p Params, claim []int32, every int, b *Buffers) {
	const L = escLanes
	m, n := q.Len(), g.Width
	qr := int16(p.GapOpen + p.GapExtend)
	r := int16(p.GapExtend)
	he := grow16(&b.he16, 2*m*L)
	h, e := vec.I16(he[:m*L]), vec.I16(he[m*L:])
	clear(h)
	vec.Set1(e, vec.MinI16)
	maxv, fcol, diagv := b.max16, b.f16, b.diag16
	colMax := vec.I16(grow16(&b.colMax16, L))
	vec.Set1(maxv, 0)
	clear(diagv)
	b.ck16 = grow16(&b.ck16, max(n-1, 0)/every*len(he))
	b.ends = [escLanes]laneEnd{}
	seq := alphabet.BytesView(q.Seq)
	for jj := 1; jj <= n; jj++ {
		// One tile: F enters each column at -inf and the next column's
		// diagonal is row 0's H, zero.
		vec.Set1(fcol, vec.MinI16)
		b.sr.Build(q, g.Interleaved[(jj-1)*L:jj*L])
		vec.Set1(colMax, 0)
		vec.StepCol16SP(h, e, fcol, diagv, colMax, b.sr.Raw(), seq, m, L, qr, r)
		clear(diagv)
		for l, c := range colMax {
			maxv[l] = max(maxv[l], c)
			if int32(c) != claim[l] || jj > g.Lens[l] {
				continue
			}
			end := &b.ends[l]
			rows := m
			if end.i > 0 {
				rows = end.i - 1
			}
			for ri := 0; ri < rows; ri++ {
				if h[ri*L+l] == c {
					end.i, end.j = ri+1, jj
					break
				}
			}
		}
		if jj%every == 0 && jj < n {
			copy(b.ck16[(jj/every-1)*len(he):], he)
		}
	}
}

// commitTracebacks folds n tracebacks run on this host into the
// cumulative totals.
func (d *Dispatcher) commitTracebacks(n int64) {
	d.totalsMu.Lock()
	defer d.totalsMu.Unlock()
	d.totals.Tracebacks += n
}
