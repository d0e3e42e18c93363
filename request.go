package heterosw

import (
	"context"
	"errors"
	"fmt"
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
	// Translate runs a blastx-style translated search: the DNA query's six
	// reading frames are the queries of one search of the protein database
	// with the unmodified protein kernels, and each subject keeps its best
	// frame score (ties to the earlier frame, in +1..+3, -1..-3 order), one
	// request per shard on a coordinator. Hits carry the winning frame (Hit.Frame) and
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
	// queries are what the search scores: the query, or a translated
	// query's frames holding a codon (frames[i] translated into queries[i];
	// frames is nil otherwise).
	queries []*sequence.Sequence
	frames  []*translate.Frame
	// k is the K the search selects.
	k int
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
	jb := job{query: req.Query, rep: req.Report, k: topK(req.Report)}
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
		jb.queries = []*sequence.Sequence{q}
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
			jb.queries = append(jb.queries, frameSeq(req.Query, f))
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
	return scheduled(context.Background(), c.sched, jb)
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
	return scheduled(ctx, c.sched, jb)
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
		res, err := scheduled(ctx, c.sched, jb)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// scheduled submits one job to a scheduler and waits for its result, the
// one submission every door and a shard node's searches make. The
// scheduler's teardown — at submission or, after CloseNow, while waiting —
// maps to ErrClusterClosed, which the HTTP front ends answer with the
// retryable 503.
func scheduled[Q, R any](ctx context.Context, s *qsched.Scheduler[Q, R], q Q) (R, error) {
	res, err := s.Do(ctx, q)
	if errors.Is(err, qsched.ErrClosed) {
		return res, ErrClusterClosed
	}
	return res, err
}

// execute is the one executor behind every door, the run function of the
// cluster's scheduler: one search of jb's queries that selects the K hits
// it asked for, then decorated. ctx is checked before every score pass and
// threaded into the traceback phase.
func (c *Cluster) execute(ctx context.Context, jb job) (*Result, error) {
	disp := c.engine()
	dopt := c.dopt
	if jb.matrix != nil {
		dopt.Search.Matrix = jb.matrix
	}
	r, err := disp.SearchContext(ctx, jb.queries, dopt, jb.k)
	if err != nil {
		return nil, err
	}
	return c.decorate(ctx, disp, dopt, &jb, r)
}

// decorate builds a job's Result from its search's r, whose hit list is
// already the request's K long, and runs the reporting phases: the
// significance fit over r.Hist (nil past stats.MaxScore, which no fit
// accepts), then the traceback, each hit re-aligned against the query its
// score came from (core.Hit.Query), a translated job's segment mapped back
// to nucleotide coordinates. Cached results are decorated before they
// enter the cache. disp must be the engine snapshot that scored r, and
// dopt the options it scored under.
func (c *Cluster) decorate(ctx context.Context, disp *core.Dispatcher, dopt core.DispatchOptions, jb *job, r *core.Result) (*Result, error) {
	res := wrapResult(r, jb.frames)
	if jb.rep.EValues {
		if r.Hist == nil {
			return nil, fmt.Errorf("%w (a score above %d)", ErrNoSignificance, stats.MaxScore)
		}
		m, err := stats.FitHistogram(r.Hist, 0)
		if err != nil {
			return nil, fmt.Errorf("%w (%v)", ErrNoSignificance, err)
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
		return res, nil
	}
	byQuery := make([][]core.Hit, len(jb.queries))
	at := make([][]int, len(jb.queries))
	for i, h := range r.Hits {
		byQuery[h.Query] = append(byQuery[h.Query], h)
		at[h.Query] = append(at[h.Query], i)
	}
	for qi, hits := range byQuery {
		if len(hits) == 0 {
			continue
		}
		details, err := disp.AlignHits(ctx, jb.queries[qi], hits, dopt)
		if err != nil {
			return nil, err
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
			res.Hits[at[qi][j]].Alignment = a
		}
	}
	return res, nil
}

// cacheKey derives the scheduler dedup/cache key of a job (see queryKey):
// the cluster's option fingerprint, then the content fingerprint of a
// request-scoped matrix, a translate marker and the report-option
// fingerprint (its K included, since a cached entry holds K hits; empty
// for the zero ReportOptions), then every query the job was asked (a
// translated job's DNA). Residue codes sit below every marker byte, so no
// two kinds of request share a key, while sequences with equal residues
// share one result whatever their IDs. A fresh job (Search) has no key.
func (c *Cluster) cacheKey(jb job) (string, bool) {
	if jb.fresh {
		return "", false
	}
	asked, translated, matrix := jb.queries, "", ""
	if jb.frames != nil {
		asked, translated = []*sequence.Sequence{jb.query.impl}, "T|"
	}
	if jb.matrix != nil {
		matrix = "M:" + jb.mkey + "|"
	}
	return queryKey(asked, c.keyBase, matrix, translated, jb.rep.key()), true
}

// queryKey is a scheduler key: the prefix strings, then the raw encoded
// residues of each query, each followed by 0xff, above every residue code,
// so no two query lists share a key.
func queryKey(queries []*sequence.Sequence, prefix ...string) string {
	size := 0
	for _, p := range prefix {
		size += len(p)
	}
	for _, q := range queries {
		size += len(q.Residues) + 1
	}
	var b strings.Builder
	b.Grow(size)
	for _, p := range prefix {
		b.WriteString(p)
	}
	for _, q := range queries {
		for _, code := range q.Residues {
			b.WriteByte(byte(code))
		}
		b.WriteByte(0xff)
	}
	return b.String()
}
