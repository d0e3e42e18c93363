package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"heterosw/internal/device"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
)

// Backend is one executor of a cluster search: an identity and something
// that runs Algorithm 1 over the database shard it owns. The stock
// implementation is EngineBackend (this host); the distributed coordinator
// plugs in one remote node per shard. What a search would cost on modelled
// hardware is not a Backend's concern — see internal/model.
type Backend interface {
	// Name identifies the backend in totals and diagnostics.
	Name() string
	// Search runs Algorithm 1 for each query over db, the shard the
	// dispatcher assigned the backend at construction, and returns the
	// opt.TopK-answer (see SelectAnswer) over each subject's best score, a
	// tie going to the earlier query, as Result.Top. Implementations must
	// be safe for concurrent calls. ctx is the request's context: remote
	// backends pass it through to the wire; local backends check it before
	// launching kernels (which are uncancellable mid-column).
	Search(ctx context.Context, db *seqdb.Database, queries []*sequence.Sequence, opt SearchOptions) (*Result, error)
}

// EngineBackend is the stock Backend: an Engine on this host, built over
// the backend's shard on first use and kept, so repeated searches reuse its
// lane packings exactly as the paper's step 2 amortises pre-processing.
type EngineBackend struct {
	name  string
	model *device.Model

	mu  sync.Mutex
	eng *Engine //sw:guardedBy(mu)
}

// NewBackend builds an EngineBackend. model supplies the lane geometry the
// backend's engine packs its groups for; threads is unused (the planner
// prices every modelled device at its maximum thread count).
func NewBackend(name string, model *device.Model, threads int) *EngineBackend {
	return &EngineBackend{name: name, model: model}
}

// Name implements Backend.
func (b *EngineBackend) Name() string { return b.name }

// Search implements Backend: one engine pass per query. The engine
// computation itself is uncancellable; ctx is honoured before every pass,
// so an already-dead request launches no more kernels.
func (b *EngineBackend) Search(ctx context.Context, db *seqdb.Database, queries []*sequence.Sequence, opt SearchOptions) (*Result, error) {
	b.mu.Lock()
	if b.eng == nil || b.eng.db != db {
		eng, err := NewEngine(db, b.model)
		if err != nil {
			b.mu.Unlock()
			return nil, err
		}
		b.eng = eng
	}
	eng := b.eng
	b.mu.Unlock()
	var best *Result
	var from []int32 // the query each subject's best score came from, once a second one runs
	for qi, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := eng.Search(q, opt)
		switch {
		case err != nil:
			return nil, err
		case best == nil:
			best = r
			continue
		case from == nil:
			from = make([]int32, len(best.Scores))
		}
		for s, v := range r.Scores {
			if v > best.Scores[s] {
				best.Scores[s], from[s] = v, int32(qi)
			}
		}
		best.Stats.Add(r.Stats)
		best.WallSeconds += r.WallSeconds
	}
	if best == nil {
		return nil, fmt.Errorf("core: no queries")
	}
	ans := SelectAnswer(best.Scores, opt.TopK)
	for i, h := range ans.Hits {
		if from != nil {
			ans.Hits[i].Query = from[h.Index]
		}
	}
	best.Scores, best.Top = nil, &ans
	return best, nil
}

// Distribution selects the workload-distribution strategy a roster is
// planned under (internal/model's PlanLengths). It is a planner input: a
// Dispatcher executes the same way whatever it says.
type Distribution int

const (
	// DistStatic splits the database residues into one shard per device
	// before the search starts — Algorithm 2's distribution, generalised
	// from two devices to N.
	DistStatic Distribution = iota
	// DistDynamic runs a device-level work queue of equal-residue chunks
	// that idle devices claim as they drain — the dynamic distribution
	// strategy the paper names as future work, mirroring OpenMP
	// schedule(dynamic) one level up.
	DistDynamic
	// DistGuided is DistDynamic with geometrically shrinking chunks
	// (OpenMP schedule(guided) at the device level): large grants early,
	// small ones to fill the load-balancing tail.
	DistGuided
)

// String returns the distribution's flag-friendly name.
func (d Distribution) String() string {
	switch d {
	case DistStatic:
		return "static"
	case DistDynamic:
		return "dynamic"
	case DistGuided:
		return "guided"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// ParseDistribution converts a distribution name to a Distribution.
func ParseDistribution(s string) (Distribution, error) {
	for _, d := range []Distribution{DistStatic, DistDynamic, DistGuided} {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("core: unknown distribution %q (have static, dynamic, guided)", s)
}

// DispatchOptions configures one cluster search.
type DispatchOptions struct {
	// Search carries the shared kernel configuration.
	Search SearchOptions
	// Dist and Shares are planner inputs (internal/model's PlanLengths)
	// and do not change what Dispatcher.Search executes: the distribution
	// the roster is planned under (DistStatic when zero) and the static
	// residue fraction per device (nil derives model-balanced shares).
	Dist   Distribution
	Shares []float64
}

// ClusterResult is what a dispatcher search reports: the merged Result.
type ClusterResult = Result

// Dispatcher runs a search over N backends, each owning one shard of the
// database: every backend searches its shard concurrently and the shards'
// answers merge into caller order through the shard index maps. The
// assignment is fixed at construction; a lone backend owns one shard, the
// database itself, under the identity map. Tracebacks (AlignHits) run on
// this host over the whole database, whoever scored the hits. A Dispatcher
// is safe for concurrent searches.
type Dispatcher struct {
	db       *seqdb.Database
	backends []Backend

	// shards[i] is the database backend i searches; idx[i] maps its caller
	// order back to the parent's; idx is nil, the identity, for a lone
	// backend.
	shards []*seqdb.Database
	idx    [][]int

	// pool lends the traceback's groups their Buffers. blockCols, when
	// positive, replaces checkpointEvery; the traceback tests set it to
	// make walks cross many blocks.
	pool      *bufferPool
	blockCols int

	totalsMu sync.Mutex
	totals   Totals //sw:guardedBy(totalsMu)
}

// NewDispatcher builds a dispatcher over a database and a roster of local
// backends. A single backend is handed the database itself under the
// identity map; N > 1 backends each get one of N equal-residue shards, cut
// once.
func NewDispatcher(db *seqdb.Database, backends []Backend) (*Dispatcher, error) {
	d, err := newDispatcher(db, backends)
	if err != nil {
		return nil, err
	}
	if len(backends) == 1 {
		d.shards = []*seqdb.Database{db}
		return d, nil
	}
	shares := make([]float64, len(backends))
	for i := range shares {
		shares[i] = 1
	}
	d.shards, d.idx = db.SplitN(shares)
	return d, nil
}

func newDispatcher(db *seqdb.Database, backends []Backend) (*Dispatcher, error) {
	if db == nil {
		return nil, fmt.Errorf("core: nil database")
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("core: empty backend roster")
	}
	per := make([]BackendTotals, len(backends))
	for i, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("core: nil backend %d", i)
		}
		per[i].Name = b.Name()
	}
	return &Dispatcher{db: db, backends: backends, pool: newBufferPool(), totals: Totals{Backends: per}}, nil
}

// NewDispatcherShards builds a dispatcher over a pre-cut shard assignment:
// backend i permanently owns shardDBs[i], whose caller-order sequences map
// back to the parent database through shardIdx[i]. This is the distributed
// coordinator's construction — the shards were cut ahead of time (swindex
// split) and each backend is a remote node that can only search the shard
// it holds. db is the parent itself, which the tracebacks read. The shards
// must cover the parent exactly: every parent index appears in exactly one
// shard.
func NewDispatcherShards(db *seqdb.Database, backends []Backend, shardDBs []*seqdb.Database, shardIdx [][]int) (*Dispatcher, error) {
	d, err := newDispatcher(db, backends)
	if err != nil {
		return nil, err
	}
	if len(shardDBs) != len(backends) || len(shardIdx) != len(backends) {
		return nil, fmt.Errorf("core: %d shards and %d index maps for %d backends",
			len(shardDBs), len(shardIdx), len(backends))
	}
	seen := make([]bool, db.Len())
	covered := 0
	for i, sdb := range shardDBs {
		if sdb == nil {
			return nil, fmt.Errorf("core: nil shard %d", i)
		}
		if sdb.Len() != len(shardIdx[i]) {
			return nil, fmt.Errorf("core: shard %d holds %d sequences but maps %d parent indices",
				i, sdb.Len(), len(shardIdx[i]))
		}
		for _, pi := range shardIdx[i] {
			if pi < 0 || pi >= db.Len() || seen[pi] {
				return nil, fmt.Errorf("core: shard %d maps parent index %d outside a one-to-one cover of [0,%d)",
					i, pi, db.Len())
			}
			seen[pi] = true
			covered++
		}
	}
	if covered != db.Len() {
		return nil, fmt.Errorf("core: shards cover %d of %d parent sequences", covered, db.Len())
	}
	d.shards, d.idx = shardDBs, shardIdx
	return d, nil
}

// BackendTotals is one backend's cumulative accounting across every search
// the dispatcher has completed, whichever concurrent batch it arrived on.
type BackendTotals struct {
	// Name identifies the backend within the roster.
	Name string
	// Grants counts the shard searches the backend has run; Residues the
	// database residues and Cells the cell updates they covered.
	Grants   int64
	Residues int64
	Cells    int64
	// WallSeconds is the backend's accumulated search wall time, so
	// Cells/WallSeconds is its realised rate.
	WallSeconds float64
}

// Totals is the dispatcher's cumulative accounting across every search it
// has completed, whichever concurrent batch it arrived on.
type Totals struct {
	// Queries counts completed query searches; Tracebacks the aligned-hit
	// tracebacks this host has run in reporting phase two (AlignHits).
	Queries    int64
	Tracebacks int64
	// Backends is the per-backend accounting, in roster order.
	Backends []BackendTotals
	// Kernel sums the cells and the precision ladder's escalations
	// (Overflows8, Overflows, OverflowCells) of every search; a
	// homolog-rich traffic mix shows in the escalations before it shows in
	// latency.
	Kernel Stats
}

// Totals reports the dispatcher's cumulative accounting. It is safe to
// call while batches are in flight; the snapshot is taken under one lock,
// so its counters agree with each other.
func (d *Dispatcher) Totals() Totals {
	d.totalsMu.Lock()
	defer d.totalsMu.Unlock()
	t := d.totals
	t.Backends = slices.Clone(t.Backends)
	return t
}

// commitTotals folds one completed search — its per-backend results —
// into the cumulative accounting.
func (d *Dispatcher) commitTotals(per []*Result) {
	d.totalsMu.Lock()
	defer d.totalsMu.Unlock()
	d.totals.Queries++
	for i, r := range per {
		if r == nil {
			continue
		}
		t := &d.totals.Backends[i]
		t.Grants++
		t.Residues += d.shards[i].Residues()
		t.Cells += r.Stats.Cells
		t.WallSeconds += r.WallSeconds
		d.totals.Kernel.Add(r.Stats)
	}
}

// DB returns the dispatcher's database.
func (d *Dispatcher) DB() *seqdb.Database { return d.db }

// Search distributes one query over the cluster and merges the shards'
// answers into caller order, the hit list bounded by opt.Search.TopK. It is
// the context-free convenience root; the serving paths run SearchContext.
//
//sw:ctxroot
func (d *Dispatcher) Search(query *sequence.Sequence, opt DispatchOptions) (*ClusterResult, error) {
	return d.SearchContext(context.Background(), []*sequence.Sequence{query}, opt, max(opt.Search.TopK, 0))
}

// SearchContext runs a search of one query, or of a translated query's
// frames, over the cluster with topK in place of opt.Search.TopK (0
// selects every hit, and fills Scores too). Each subject keeps its best
// score over the queries, a tie going to the earlier query (Hit.Query), and
// the shards' answers merge (MergeAnswers). A context already cancelled
// runs nothing; kernels already launched finish their current query, and
// nothing is left running after the call returns.
func (d *Dispatcher) SearchContext(ctx context.Context, queries []*sequence.Sequence, opt DispatchOptions, topK int) (*ClusterResult, error) {
	per, wall, err := d.search(ctx, queries, opt, topK)
	if err != nil {
		return nil, err
	}
	out := &ClusterResult{WallSeconds: wall}
	answers := make([]Answer, len(per))
	for i, r := range per {
		if r != nil {
			answers[i] = *r.Top
			out.Stats.Add(r.Stats)
		}
	}
	if topK == 0 {
		out.Scores = make([]int32, d.db.Len())
		for i, a := range answers {
			for _, h := range a.Hits {
				out.Scores[parent(d.idx, i, h.Index)] = h.Score
			}
		}
	}
	out.Hits, out.Hist = MergeAnswers(d.db, answers, d.idx, topK)
	return out, nil
}

// Answer is SearchContext on a one-backend dispatcher without the merge:
// the backend's result, its topK-answer in Top. A shard node's wire job
// runs it, since the answer is all a node sends.
func (d *Dispatcher) Answer(ctx context.Context, queries []*sequence.Sequence, opt DispatchOptions, topK int) (*Result, error) {
	if len(d.backends) != 1 {
		return nil, fmt.Errorf("core: Answer needs one backend, not %d", len(d.backends))
	}
	per, _, err := d.search(ctx, queries, opt, topK)
	if err != nil {
		return nil, err
	}
	return cmp.Or(per[0], &Result{Top: &Answer{}}), nil // nil: an empty database
}

// search is the dispatcher's one execution path: every backend with a
// non-empty shard searches it for the queries and answers its shard's
// topK-answer, the first backend on the caller's goroutine and each other
// on one of its own. It commits the totals and returns each backend's
// result (nil for an empty shard) and the wall time.
func (d *Dispatcher) search(ctx context.Context, queries []*sequence.Sequence, opt DispatchOptions, topK int) ([]*Result, float64, error) {
	if len(queries) == 0 || slices.Contains(queries, nil) {
		return nil, 0, fmt.Errorf("core: no queries, or a nil one")
	}
	if topK < 0 {
		return nil, 0, fmt.Errorf("core: negative k %d", topK)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	so := opt.Search
	so.TopK = topK
	n := len(d.backends)
	results := make([]*Result, n)
	errs := make([]error, n)
	run := func(i int) {
		if d.shards[i].Len() > 0 {
			results[i], errs[i] = d.backends[i].Search(ctx, d.shards[i], queries, so)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(0)
	wg.Wait()
	wall := time.Since(start).Seconds()
	if err := firstErr(errs...); err != nil {
		return nil, 0, err
	}
	d.commitTotals(results)
	return results, wall, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
