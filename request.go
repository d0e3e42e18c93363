package heterosw

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"heterosw/internal/alphabet"
	"heterosw/internal/core"
	"heterosw/internal/qsched"
	"heterosw/internal/sequence"
	"heterosw/internal/stats"
	"heterosw/internal/submat"
	"heterosw/internal/translate"
)

// Request is one search: the query, and how to score and report it. The
// zero Matrix and Translate search the query as it is under the cluster's
// own matrix.
type Request struct {
	// Query is the searched sequence, encoded under the database's alphabet
	// — or DNA, for a translated search.
	Query Sequence
	// Matrix, when non-empty, is a substitution matrix in the NCBI textual
	// format that replaces the cluster's for this request alone, parsed
	// against the database's alphabet. Rejected text wraps ErrBadMatrix, and
	// so does any Matrix sent to a distributed coordinator: its nodes score
	// under their own configured matrix, which the shard wire cannot change.
	Matrix string
	// Translate runs a blastx-style translated search: the DNA query is
	// translated in all six reading frames, every frame is searched against
	// the protein database with the unmodified protein kernels, and each
	// subject keeps its best frame score (ties to the earlier frame, in
	// +1..+3, -1..-3 order). Hits carry the winning frame (Hit.Frame) and
	// aligned hits the nucleotide range of the query their frame segment
	// was translated from (HitAlignment.QueryDNAStart/End).
	Translate bool
	// Report selects the reporting phases (see ReportOptions).
	Report ReportOptions
}

// ErrBadRequest is wrapped by every request the search doors reject as
// malformed: a zero-value query, invalid ReportOptions, a query whose
// alphabet does not fit the database, a translated search without a DNA
// query and a protein database, or a DNA query too short to translate. The
// HTTP front end answers it with 400.
var ErrBadRequest = errors.New("heterosw: bad request")

func badRequest(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadRequest}, args...)...)
}

// job is one validated request as the executor runs it — the unit the
// scheduler runs, dedups and caches.
type job struct {
	query Sequence
	rep   ReportOptions
	// matrix is the request-scoped substitution matrix (nil: the cluster's)
	// and mkey its content fingerprint, part of the cache key.
	matrix *submat.Matrix
	mkey   string
	// frames are a translated query's reading frames and fseqs their
	// protein queries, the frames holding at least one codon; both nil for a
	// direct search.
	frames []*translate.Frame
	fseqs  []*sequence.Sequence
	// wire marks a shard node's search for its coordinator, and k is the
	// coordinator's K: the result carries the shard's k-answer
	// (core.SelectAnswer) and no hit list.
	wire bool
	k    int
	// fresh marks a Search job: it has no cache key, so the scheduler runs
	// it in a slot of its own, never joined and never cached.
	fresh bool
}

// prepare is the one validation every door runs: it checks a request
// against this cluster and resolves it into the job the executor runs, so a
// request that can never succeed is refused before it reaches a scheduler.
func (c *Cluster) prepare(req Request) (job, error) {
	if err := req.Report.validate(); err != nil {
		return job{}, err
	}
	if err := c.checkReport(req.Report); err != nil {
		return job{}, err
	}
	q := req.Query.impl
	if q == nil {
		return job{}, badRequest("zero-value query")
	}
	jb := job{query: req.Query, rep: req.Report}
	dbAlpha := c.db.db.Alphabet()
	if req.Matrix != "" {
		if c.topo != nil {
			return job{}, fmt.Errorf("%w: a coordinator cannot apply a request-scoped matrix (its nodes score under their own)", ErrBadMatrix)
		}
		m, err := submat.Parse("custom", strings.NewReader(req.Matrix), dbAlpha)
		if err != nil {
			return job{}, err
		}
		jb.matrix, jb.mkey = m, m.Fingerprint()
	}
	if !req.Translate {
		if q.Alphabet() != dbAlpha {
			return job{}, badRequest("%s query against a %s database", q.Alphabet().Name(), dbAlpha.Name())
		}
		return jb, nil
	}
	if q.Alphabet() != alphabet.DNA {
		return job{}, badRequest("translated search needs a DNA query, got %s", q.Alphabet().Name())
	}
	if dbAlpha != alphabet.Protein {
		return job{}, badRequest("translated search needs a protein database, got %s", dbAlpha.Name())
	}
	for _, f := range translate.Frames(q.Residues) {
		if len(f.Protein) > 0 {
			jb.frames = append(jb.frames, f)
			jb.fseqs = append(jb.fseqs, frameSeq(req.Query, f))
		}
	}
	if jb.frames == nil {
		return job{}, badRequest("query %s is too short to translate (%d nt)", q.ID, q.Len())
	}
	return jb, nil
}

// frameSeq is the protein query of one reading frame of a DNA query.
func frameSeq(query Sequence, f *translate.Frame) *sequence.Sequence {
	return &sequence.Sequence{
		ID:       fmt.Sprintf("%s|frame%+d", query.impl.ID, f.Index),
		Desc:     query.impl.Desc,
		Residues: f.Protein,
	}
}

// plainRequest is the Request of the variadic doors: a direct search of
// query with at most one ReportOptions.
func plainRequest(query Sequence, report []ReportOptions) (Request, error) {
	req := Request{Query: query}
	switch len(report) {
	case 0:
	case 1:
		req.Report = report[0]
	default:
		return req, badRequest("at most one ReportOptions per call")
	}
	return req, nil
}

// Search computes one query through the cluster's scheduler: it waits for
// one of the MaxInFlight slots like every other door and counts in
// Stats().Scheduler, but it is never joined to an identical in-flight request
// and never answered from or added to the cache, so every call computes —
// for one-off searches and for timing repeats of one query. An optional
// ReportOptions enables the reporting phases. It is the context-free
// convenience root; serving traffic, translated and custom-matrix searches
// use Do.
//
//sw:ctxroot
func (c *Cluster) Search(query Sequence, report ...ReportOptions) (*Result, error) {
	req, err := plainRequest(query, report)
	if err != nil {
		return nil, err
	}
	jb, err := c.prepare(req)
	if err != nil {
		return nil, err
	}
	jb.fresh = true
	return c.scheduled(context.Background(), jb)
}

// SearchScheduled is Do for a direct search of query with an optional
// ReportOptions.
func (c *Cluster) SearchScheduled(ctx context.Context, query Sequence, report ...ReportOptions) (*Result, error) {
	req, err := plainRequest(query, report)
	if err != nil {
		return nil, err
	}
	return c.Do(ctx, req)
}

// Do runs one request through the cluster's scheduler: it runs as
// soon as one of the MaxInFlight slots is free and resolves as soon as its
// own result is decorated, identical in-flight requests share one
// execution, and repeats are answered from the cluster's LRU cache —
// direct, translated and custom-matrix requests alike, since the matrix's
// content, the translate flag and the report options are all part of the
// cache key. ctx bounds the caller's wait, not the computation: cancelling
// it abandons the wait, and the result still lands in the cache for the
// next asker. Results may be shared between callers, translated and
// custom-matrix ones included; treat them as read-only. POST /search is
// one Do.
func (c *Cluster) Do(ctx context.Context, req Request) (*Result, error) {
	jb, err := c.prepare(req)
	if err != nil {
		return nil, err
	}
	return c.scheduled(ctx, jb)
}

// DoBatch runs a batch of requests through the cluster's scheduler in order
// and returns the results in request order. Every request is validated
// before any is submitted, so a malformed one fails the call at no cost to
// the others; then request i+1 is submitted when request i has resolved,
// so a batch holds one request's working memory at a time and shares the
// in-flight slots with concurrent callers one query at a time. ctx bounds
// the wait, as in Do. A failure names the request it came from ("query 2:
// ...") and wraps its cause. POST /batch is one DoBatch.
func (c *Cluster) DoBatch(ctx context.Context, reqs []Request) ([]*Result, error) {
	jobs := make([]job, len(reqs))
	for i, req := range reqs {
		jb, err := c.prepare(req)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		jobs[i] = jb
	}
	out := make([]*Result, len(jobs))
	for i, jb := range jobs {
		res, err := c.scheduled(ctx, jb)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// scheduled submits one prepared job to the cluster's scheduler and waits
// for its result, the one submission every door makes. The scheduler's
// teardown — at submission or, after CloseNow, while waiting — maps to
// ErrClusterClosed, which the HTTP front end answers with the retryable 503.
func (c *Cluster) scheduled(ctx context.Context, jb job) (*Result, error) {
	res, err := c.sched.Do(ctx, jb)
	if errors.Is(err, qsched.ErrClosed) {
		return nil, ErrClusterClosed
	}
	return res, err
}

// execute is the one executor behind every door, the run function of the
// cluster's scheduler. jb comes from prepare, or is a shard node's wire
// job. A direct job is one score pass that selects the K hits its request
// asked for; a translated job is one score pass per frame, merged before
// the hits are selected. The result is then decorated; a wire job's result
// is its shard's answer instead. ctx is checked before every score pass and
// threaded into the traceback phase.
func (c *Cluster) execute(ctx context.Context, jb job) (*Result, error) {
	disp := c.engine()
	dopt := c.dopt
	if jb.matrix != nil {
		dopt.Search.Matrix = jb.matrix
	}
	if jb.wire {
		// Scores only: the node's answer is selected from its shard's list.
		r, err := disp.SearchContext(ctx, jb.query.impl, dopt, -1)
		if err != nil {
			return nil, err
		}
		res := wrapResult(r)
		ans := core.SelectAnswer(r.Scores, jb.k)
		res.answer = &ans
		return res, nil
	}
	var (
		res    *Result
		scores []int32
		hist   []int
		winner []int
	)
	if jb.frames != nil {
		// Scores only per frame: the hits are selected over the merged
		// frame scores.
		per := make([]*core.Result, len(jb.fseqs))
		for i, q := range jb.fseqs {
			r, err := disp.SearchContext(ctx, q, dopt, -1)
			if err != nil {
				return nil, err
			}
			per[i] = r
		}
		res, scores, winner = c.mergeFrames(per, jb.frames, topK(jb.rep))
	} else {
		r, err := disp.SearchContext(ctx, jb.query.impl, dopt, topK(jb.rep))
		if err != nil {
			return nil, err
		}
		res, scores, hist = wrapResult(r), r.Scores, r.Hist
	}
	if jb.rep.EValues && hist == nil {
		// One engine pass: the histogram of its score list. A sharded
		// search merged its shards' histograms instead.
		h, err := stats.Histogram(scores)
		if err != nil {
			return nil, fmt.Errorf("%w (%v)", ErrNoSignificance, err)
		}
		hist = h
	}
	if err := c.decorate(ctx, disp, dopt, &jb, res, hist, winner); err != nil {
		return nil, err
	}
	return res, nil
}

// mergeFrames folds a translated job's per-frame results into one: each
// subject keeps its best frame score (ties to the earlier frame, in
// +1..+3, -1..-3 order), cost accounting sums over frames, and the k best
// hits (all when 0) are selected over the merged scores, each stamped with
// its winning frame. It also returns the merged scores and a map from each
// database index to the index (into frames) of its winning frame.
func (c *Cluster) mergeFrames(res []*core.Result, frames []*translate.Frame, k int) (*Result, []int32, []int) {
	best := res[0]
	winner := make([]int, len(best.Scores))
	for i, r := range res[1:] {
		for s, v := range r.Scores {
			if v > best.Scores[s] {
				best.Scores[s] = v
				winner[s] = i + 1
			}
		}
		best.Stats.Add(r.Stats)
		best.WallSeconds += r.WallSeconds
	}
	best.Hits = core.TopHits(c.db.db, best.Scores, k)
	merged := wrapResult(best)
	for i := range merged.Hits {
		h := &merged.Hits[i]
		h.Frame = frames[winner[h.Index]].Index
	}
	return merged, best.Scores, winner
}

// decorate runs the reporting phases over a freshly assembled result,
// whose hit list is already the request's K long: the significance fit
// over hist, the histogram of every subject's score, then the traceback
// phase, each hit re-aligned against the query its score came from — for a translated job the winning frame's protein
// (winner maps a database index to its frame; nil for a direct search),
// with the aligned segment mapped back to nucleotide coordinates. It must
// only ever see results this call owns: cached results are decorated
// before they enter the cache, never after. disp must be the engine
// snapshot that scored the result, and dopt the options it scored under.
func (c *Cluster) decorate(ctx context.Context, disp *core.Dispatcher, dopt core.DispatchOptions, jb *job, res *Result, hist []int, winner []int) error {
	if jb.rep.EValues {
		m, err := stats.FitHistogram(hist, 0)
		if err != nil {
			return fmt.Errorf("%w (%v)", ErrNoSignificance, err)
		}
		sig := &Significance{impl: m}
		res.Significance = sig
		for i := range res.Hits {
			h := &res.Hits[i]
			h.Significance = &HitSignificance{
				BitScore: sig.BitScore(h.Score),
				EValue:   sig.EValue(h.Score),
			}
		}
	}
	if !jb.rep.Alignments {
		return nil
	}
	queries := jb.fseqs
	if jb.frames == nil {
		queries = []*sequence.Sequence{jb.query.impl}
	}
	byQuery := make([][]int, len(queries))
	for i, h := range res.Hits {
		qi := 0
		if winner != nil {
			qi = winner[h.Index]
		}
		byQuery[qi] = append(byQuery[qi], i)
	}
	for qi, hitIdx := range byQuery {
		if len(hitIdx) == 0 {
			continue
		}
		hits := make([]core.Hit, len(hitIdx))
		for j, i := range hitIdx {
			h := res.Hits[i]
			hits[j] = core.Hit{SeqIndex: h.Index, ID: h.ID, Score: int32(h.Score)}
		}
		details, err := disp.AlignHits(ctx, queries[qi], hits, dopt)
		if err != nil {
			return err
		}
		for j := range details {
			d := &details[j]
			a := &HitAlignment{
				QueryStart:   d.QueryStart,
				QueryEnd:     d.QueryEnd,
				SubjectStart: d.SubjectStart,
				SubjectEnd:   d.SubjectEnd,
				CIGAR:        d.CIGAR,
				Identities:   d.Identities,
				Columns:      d.Columns,
			}
			if jb.frames != nil {
				a.QueryDNAStart, a.QueryDNAEnd = jb.frames[qi].DNARange(d.QueryStart, d.QueryEnd)
			}
			res.Hits[hitIdx[j]].Alignment = a
		}
	}
	return nil
}

// cacheKey derives the scheduler dedup/cache key of a job: the cluster's
// option fingerprint, then the content fingerprint of a request-scoped
// matrix, a translate marker, the report-option fingerprint (its K
// included, since a cached entry holds K hits; empty for the zero
// ReportOptions) or a shard node's wire marker with its K (a cached answer
// holds K hits and the histogram below them), and last the raw encoded
// residues. Residue codes sit below every marker byte, so no two kinds of
// request share a key, while sequences with equal residues share one result
// whatever their IDs; the encoding is injective, so no decode pass is
// needed. A fresh job (Search) has no key.
func (c *Cluster) cacheKey(jb job) (string, bool) {
	if jb.fresh {
		return "", false
	}
	res := jb.query.impl.Residues
	rk := jb.rep.key()
	if jb.wire {
		rk = "W:k=" + strconv.Itoa(jb.k) + "|"
	}
	var b strings.Builder
	b.Grow(len(c.keyBase) + len("M:|") + len(jb.mkey) + len("T|") + len(rk) + len(res))
	b.WriteString(c.keyBase)
	if jb.matrix != nil {
		b.WriteString("M:")
		b.WriteString(jb.mkey)
		b.WriteByte('|')
	}
	if jb.frames != nil {
		b.WriteString("T|")
	}
	b.WriteString(rk)
	for _, code := range res {
		b.WriteByte(byte(code))
	}
	return b.String(), true
}
