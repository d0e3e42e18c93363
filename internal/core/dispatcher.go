package core

import (
	"context"
	"fmt"
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
// hardware is not a Backend's concern — see plan.go.
type Backend interface {
	// Name identifies the backend in totals and diagnostics.
	Name() string
	// Search runs Algorithm 1 over db, the shard the dispatcher assigned
	// the backend at construction. Implementations must be safe for
	// concurrent calls. ctx is the request's context: remote backends pass
	// it through to the wire so a cancelled search stops burning node
	// time; local backends check it before launching kernels (which are
	// uncancellable mid-column).
	Search(ctx context.Context, db *seqdb.Database, query *sequence.Sequence, opt SearchOptions) (*Result, error)
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

// Search implements Backend. The engine computation itself is
// uncancellable; ctx is honoured at the call boundary so an already-dead
// request never launches kernels.
func (b *EngineBackend) Search(ctx context.Context, db *seqdb.Database, query *sequence.Sequence, opt SearchOptions) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
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
	return eng.Search(query, opt)
}

// DispatchOptions configures one cluster search.
type DispatchOptions struct {
	// Search carries the shared kernel configuration.
	Search SearchOptions
	// Dist and Shares are planner inputs (PlanLengths) and do not change
	// what Dispatcher.Search executes: the distribution the roster is
	// planned under (DistStatic when zero) and the static residue fraction
	// per device (nil derives model-balanced OptimalShares).
	Dist   Distribution
	Shares []float64
}

// ClusterResult is what a dispatcher search reports: the merged Result.
type ClusterResult = Result

// Dispatcher runs a search over N backends, each owning one shard of the
// database: every backend searches its shard concurrently and the scores
// merge into caller order through the shard index maps. The assignment is
// fixed at construction. A Dispatcher is safe for concurrent searches.
type Dispatcher struct {
	db       *seqdb.Database
	backends []Backend

	// shards[i] is the database backend i searches; idx[i] maps its caller
	// order back to the parent's. A single local backend searches the
	// parent itself: shards[0] == db and idx is nil.
	shards []*seqdb.Database
	idx    [][]int
	// owner maps each parent sequence index to its owning backend and
	// shard-local index, and aligners holds the backends again as the
	// ShardBackends that run the tracebacks, for the traceback fan-out of
	// a pre-cut assignment (NewDispatcherShards); both nil for a local
	// dispatcher, whose tracebacks run on the host over the parent.
	owner    []shardRef
	aligners []ShardBackend

	totalsMu sync.Mutex
	queries  int64           //sw:guardedBy(totalsMu)
	totals   []BackendTotals //sw:guardedBy(totalsMu)
	stats    Stats           //sw:guardedBy(totalsMu)
}

// NewDispatcher builds a dispatcher over a database and a roster of local
// backends. A single backend is handed the database itself; N > 1 backends
// each get one of N equal-residue shards, cut once.
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
	totals := make([]BackendTotals, len(backends))
	for i, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("core: nil backend %d", i)
		}
		totals[i].Name = b.Name()
	}
	return &Dispatcher{db: db, backends: backends, totals: totals}, nil
}

// shardRef locates one parent sequence within a pre-cut shard assignment.
type shardRef struct {
	backend int // roster index of the owning backend
	local   int // caller index within that backend's shard
}

// NewDispatcherShards builds a dispatcher over a pre-cut shard assignment:
// backend i permanently owns shardDBs[i], whose caller-order sequences map
// back to the parent database through shardIdx[i]. This is the distributed
// coordinator's construction — the shards were cut ahead of time (swindex
// split) and each backend is a remote node that can only search the shard
// it holds, and whose tracebacks run there too. The shards must cover the
// parent exactly: every parent index appears in exactly one shard.
func NewDispatcherShards(db *seqdb.Database, aligners []ShardBackend, shardDBs []*seqdb.Database, shardIdx [][]int) (*Dispatcher, error) {
	backends := make([]Backend, len(aligners))
	for i, b := range aligners {
		backends[i] = b
	}
	d, err := newDispatcher(db, backends)
	if err != nil {
		return nil, err
	}
	if len(shardDBs) != len(backends) || len(shardIdx) != len(backends) {
		return nil, fmt.Errorf("core: %d shards and %d index maps for %d backends",
			len(shardDBs), len(shardIdx), len(backends))
	}
	owner := make([]shardRef, db.Len())
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
		for j, pi := range shardIdx[i] {
			if pi < 0 || pi >= db.Len() || seen[pi] {
				return nil, fmt.Errorf("core: shard %d maps parent index %d outside a one-to-one cover of [0,%d)",
					i, pi, db.Len())
			}
			seen[pi] = true
			covered++
			owner[pi] = shardRef{backend: i, local: j}
		}
	}
	if covered != db.Len() {
		return nil, fmt.Errorf("core: shards cover %d of %d parent sequences", covered, db.Len())
	}
	d.shards, d.idx, d.owner, d.aligners = shardDBs, shardIdx, owner, aligners
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
	// Tracebacks counts the aligned-hit tracebacks the backend has run in
	// reporting phase two (AlignHits).
	Tracebacks int64
}

// Totals reports the number of completed query searches and per-backend
// cumulative accounting, in roster order. It is safe to call while batches
// are in flight; the snapshot is internally consistent.
func (d *Dispatcher) Totals() (queries int64, per []BackendTotals) {
	d.totalsMu.Lock()
	defer d.totalsMu.Unlock()
	return d.queries, append([]BackendTotals(nil), d.totals...)
}

// KernelStats reports the kernel operation counts summed over every search
// the dispatcher has completed — among them the precision ladder's
// escalations (Overflows8, Overflows, OverflowCells), where a homolog-rich
// traffic mix shows before it shows in latency. See Totals for the snapshot
// semantics.
func (d *Dispatcher) KernelStats() Stats {
	d.totalsMu.Lock()
	defer d.totalsMu.Unlock()
	return d.stats
}

// commitTotals folds one completed search — its per-backend results —
// into the cumulative accounting.
func (d *Dispatcher) commitTotals(per []*Result) {
	d.totalsMu.Lock()
	defer d.totalsMu.Unlock()
	d.queries++
	for i, r := range per {
		if r == nil {
			continue
		}
		t := &d.totals[i]
		t.Grants++
		t.Residues += d.shards[i].Residues()
		t.Cells += r.Stats.Cells
		t.WallSeconds += r.WallSeconds
		d.stats.Add(r.Stats)
	}
}

// DB returns the dispatcher's database.
func (d *Dispatcher) DB() *seqdb.Database { return d.db }

// Search distributes one query over the cluster and merges the score
// lists into caller order, the hit list bounded by opt.Search.TopK. It is
// the context-free convenience root; the serving paths run SearchContext.
//
//sw:ctxroot
func (d *Dispatcher) Search(query *sequence.Sequence, opt DispatchOptions) (*ClusterResult, error) {
	return d.SearchContext(context.Background(), query, opt, max(opt.Search.TopK, 0))
}

// SearchContext runs one query over the cluster with topK in place of
// opt.Search.TopK, so each request pays for the hits it asked for: 0
// selects every hit, a negative bound no hit list at all (the result
// carries Scores only). A context already cancelled runs nothing; kernels
// already launched finish their current query, and nothing is left running
// after the call returns.
func (d *Dispatcher) SearchContext(ctx context.Context, query *sequence.Sequence, opt DispatchOptions, topK int) (*ClusterResult, error) {
	if query == nil {
		return nil, fmt.Errorf("core: nil query")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	so := opt.Search
	so.TopK, so.scoresOnly = topK, topK < 0
	r, per, err := d.search(ctx, query, so)
	if err != nil {
		return nil, err
	}
	d.commitTotals(per)
	return r, nil
}

// search is the dispatcher's one execution path: every backend with a
// non-empty shard searches it, concurrently, and the score lists merge by
// shard index maps, the hit list selected over the merged scores. A lone
// backend over the parent itself answers directly, hit list included. The
// per-backend results are returned for the totals.
func (d *Dispatcher) search(ctx context.Context, query *sequence.Sequence, opt SearchOptions) (*ClusterResult, []*Result, error) {
	n := len(d.backends)
	results := make([]*Result, n)
	if d.idx == nil {
		r, err := d.backends[0].Search(ctx, d.db, query, opt)
		if err != nil {
			return nil, nil, err
		}
		results[0] = r
		return r, results, nil
	}
	topK, wantHits := opt.TopK, !opt.scoresOnly
	opt.scoresOnly = true
	errs := make([]error, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i, b := range d.backends {
		if d.shards[i].Len() == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			results[i], errs[i] = b.Search(ctx, d.shards[i], query, opt)
		}(i, b)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if err := firstErr(errs...); err != nil {
		return nil, nil, err
	}
	out := &ClusterResult{}
	out.Scores = make([]int32, d.db.Len())
	for i, r := range results {
		if r == nil {
			continue
		}
		for j, s := range r.Scores {
			out.Scores[d.idx[i][j]] = s
		}
		out.Stats.Add(r.Stats)
	}
	out.WallSeconds = wall
	if wall > 0 {
		out.WallGCUPS = float64(out.Stats.Cells) / wall / 1e9
	}
	if wantHits {
		out.Hits = TopHits(d.db, out.Scores, topK)
	}
	return out, results, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
