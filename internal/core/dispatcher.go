package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"heterosw/internal/device"
	"heterosw/internal/offload"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
)

// Backend is one compute device participating in a cluster search: an
// identity, a performance model for cost prediction and simulated timing,
// and an executor that runs Algorithm 1 over a database shard. The stock
// implementation is EngineBackend; experiment code can plug in any other
// device roster (the KNL of the 2017 follow-up, a gather-less Phi
// ablation, ...) by providing a device.Model or a whole implementation.
type Backend interface {
	// Name identifies the backend in results and diagnostics; rosters
	// with repeated device kinds should still use distinct names.
	Name() string
	// Model is the device performance model used for cost prediction and
	// simulated timing.
	Model() *device.Model
	// Threads is the simulated thread count the backend runs with
	// (0 = the model's hardware maximum).
	Threads() int
	// Search runs the single-device Algorithm 1 over db. Implementations
	// must be safe for concurrent calls and should cache per-database
	// pre-processing (lane packings) so batched queries amortise it.
	// ctx is the request's context: remote backends pass it through to
	// the wire so a cancelled search stops burning node time; local
	// backends may only check it between chunks (kernels are
	// uncancellable mid-column).
	Search(ctx context.Context, db *seqdb.Database, query *sequence.Sequence, opt SearchOptions) (*Result, error)
}

// EngineBackend is the stock Backend: it wraps Engine and caches one
// engine per database shard, so repeated searches over the dispatcher's
// shards or chunks reuse their lane packings exactly as the paper's step 2
// amortises pre-processing.
type EngineBackend struct {
	name    string
	model   *device.Model
	threads int
	// pool is the kernel scratch every engine of this backend borrows
	// from: one set per backend, not one per cached chunk engine.
	pool *bufferPool

	mu      sync.Mutex
	engines map[any]*Engine
}

// NewBackend builds an EngineBackend over a device model. threads is the
// simulated thread count (0 = model maximum).
func NewBackend(name string, m *device.Model, threads int) *EngineBackend {
	return &EngineBackend{
		name:    name,
		model:   m,
		threads: threads,
		pool:    newBufferPool(),
		engines: make(map[any]*Engine),
	}
}

// engineKey is the engine-cache identity of a database: the content key
// for index-backed databases (seqdb.Database.Key), so shards carrying the
// same checksum-derived key share one engine — and its cached lane
// packings — across distinct Database values (a rebuilt shard split of the
// same .swdb, two loads of one index); the pointer for ad-hoc databases,
// whose content has no durable identity.
func engineKey(db *seqdb.Database) any {
	if k := db.Key(); k != "" {
		return k
	}
	return db
}

// Name implements Backend.
func (b *EngineBackend) Name() string { return b.name }

// Model implements Backend.
func (b *EngineBackend) Model() *device.Model { return b.model }

// Threads implements Backend.
func (b *EngineBackend) Threads() int { return b.threads }

// maxCachedEngines bounds the per-backend engine cache. It comfortably
// covers several full default chunk partitions (chunksPerBackend chunks
// per backend per set) so steady-state batch traffic never evicts; when a
// long-running cluster rotates through more shards than this, one
// arbitrary entry is evicted per insert rather than flushing the cache
// wholesale.
const maxCachedEngines = 512

// Search implements Backend, caching one engine per database identity
// (see engineKey). The engine computation itself is uncancellable; ctx is
// honoured at the call boundary so an already-dead request never launches
// kernels.
func (b *EngineBackend) Search(ctx context.Context, db *seqdb.Database, query *sequence.Sequence, opt SearchOptions) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := engineKey(db)
	b.mu.Lock()
	eng, ok := b.engines[key]
	b.mu.Unlock()
	if !ok {
		var err error
		eng, err = NewEngine(db, b.model)
		if err != nil {
			return nil, err
		}
		eng.pool = b.pool
		b.mu.Lock()
		if cached, again := b.engines[key]; again {
			eng = cached
		} else {
			if len(b.engines) >= maxCachedEngines {
				for k := range b.engines {
					delete(b.engines, k)
					break
				}
			}
			b.engines[key] = eng
		}
		b.mu.Unlock()
	}
	return eng.Search(query, opt)
}

// Distribution selects the dispatcher's workload-distribution strategy.
type Distribution int

const (
	// DistStatic splits the database residues into one shard per backend
	// before the search starts — Algorithm 2's distribution, generalised
	// from two devices to N.
	DistStatic Distribution = iota
	// DistDynamic runs a device-level work queue of equal-residue chunks
	// that idle backends claim as they drain — the dynamic distribution
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
	// Search carries the shared kernel configuration. Its Threads field is
	// ignored: each backend runs with its own Backend.Threads().
	Search SearchOptions
	// Dist selects the workload distribution (DistStatic when zero).
	Dist Distribution
	// Shares holds the static residue fraction per backend; nil derives
	// model-balanced shares (OptimalShares) per query. Ignored by the
	// dynamic distributions.
	Shares []float64
	// ChunkResidues is the dynamic chunk granularity in residues (for
	// DistGuided, the minimum chunk). 0 derives a default that yields
	// roughly chunksPerBackend chunks per backend.
	ChunkResidues int64
}

// chunksPerBackend sets the default dynamic chunk granularity: enough
// chunks that the end-of-queue imbalance is a small fraction of the whole
// search, few enough that per-chunk dispatch and PCIe latency stay noise.
const chunksPerBackend = 24

// BackendStats reports one backend's part in a cluster search.
type BackendStats struct {
	// Name and Threads identify the backend and its simulated occupancy
	// (Threads is 0 when the backend received no work).
	Name    string
	Threads int
	// Share is the realised fraction of database residues the backend
	// processed (static) or was scheduled in simulation (dynamic).
	Share float64
	// Chunks counts the device-level work grants: 1 shard under the
	// static distribution, claimed queue chunks under the dynamic ones.
	Chunks int
	// SimSeconds is the backend's simulated busy time, including its PCIe
	// transfers for offload devices.
	SimSeconds float64
}

// ClusterResult reports a dispatcher search: the merged score list plus
// per-backend accounting.
type ClusterResult struct {
	Result
	// PerBackend has one entry per dispatcher backend, in roster order.
	PerBackend []BackendStats
}

// Dispatcher distributes database shards across N backends: the paper's
// Algorithm 2 generalised from the fixed Xeon+Phi pair to a device-count-
// agnostic cluster, with either the static residue split or a dynamic
// device-level chunk queue. A Dispatcher is safe for concurrent searches;
// shard splits, chunk partitions and per-backend engines are cached, so
// batched queries amortise every piece of pre-processing.
type Dispatcher struct {
	db       *seqdb.Database
	backends []Backend

	// fixed pins the shard assignment (one shard per backend, in roster
	// order) instead of deriving splits from shares — the distributed
	// coordinator's mode, where backend i is the remote node owning shard
	// i and the cut was made ahead of time by swindex split. owner maps
	// each parent sequence index to its owning backend and shard-local
	// index, for the traceback fan-out. Both are nil for ordinary
	// dispatchers.
	fixed *shardSet
	owner []shardRef

	mu         sync.Mutex
	shards     map[string]*shardSet   //sw:guardedBy(mu)
	chunks     map[chunkKey]*chunkSet //sw:guardedBy(mu)
	plans      map[string]*Plan       //sw:guardedBy(mu)
	autoShares map[string][]float64   //sw:guardedBy(mu)

	totalsMu sync.Mutex
	queries  int64           //sw:guardedBy(totalsMu)
	totals   []BackendTotals //sw:guardedBy(totalsMu)
	stats    Stats           //sw:guardedBy(totalsMu)
}

// shardSet is one cached static split.
type shardSet struct {
	shares []float64 // requested
	dbs    []*seqdb.Database
	idx    [][]int
}

type chunkKey struct {
	dist          Distribution
	chunkResidues int64
}

// chunkSet is one cached device-level chunk partition. Chunks are stored
// in consumption order (see newChunkSet).
type chunkSet struct {
	dbs []*seqdb.Database
	idx [][]int
}

// NewDispatcher builds a dispatcher over a database and a backend roster.
func NewDispatcher(db *seqdb.Database, backends []Backend) (*Dispatcher, error) {
	if db == nil {
		return nil, fmt.Errorf("core: nil database")
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("core: empty backend roster")
	}
	for i, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("core: nil backend %d", i)
		}
		if err := b.Model().Validate(); err != nil {
			return nil, fmt.Errorf("core: backend %d (%s): %w", i, b.Name(), err)
		}
	}
	totals := make([]BackendTotals, len(backends))
	for i, b := range backends {
		totals[i].Name = b.Name()
	}
	return &Dispatcher{
		db:         db,
		backends:   backends,
		shards:     make(map[string]*shardSet),
		chunks:     make(map[chunkKey]*chunkSet),
		plans:      make(map[string]*Plan),
		autoShares: make(map[string][]float64),
		totals:     totals,
	}, nil
}

// shardRef locates one parent sequence within a fixed shard assignment.
type shardRef struct {
	backend int // roster index of the owning backend
	local   int // caller index within that backend's shard
}

// NewDispatcherShards builds a dispatcher over a pre-cut shard assignment:
// backend i permanently owns shardDBs[i], whose caller-order sequences map
// back to the parent database through shardIdx[i]. This is the distributed
// coordinator's construction — the shards were cut ahead of time (swindex
// split) and each backend is a remote node that can only search the shard
// it holds, so the dispatcher must never re-split. The shards must cover
// the parent exactly: every parent index appears in exactly one shard.
// Only the static distribution is valid over a fixed assignment.
func NewDispatcherShards(db *seqdb.Database, backends []Backend, shardDBs []*seqdb.Database, shardIdx [][]int) (*Dispatcher, error) {
	d, err := NewDispatcher(db, backends)
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
	d.fixed = &shardSet{dbs: shardDBs, idx: shardIdx}
	d.owner = owner
	return d, nil
}

// BackendTotals is one backend's cumulative accounting across every search
// the dispatcher has completed, whichever concurrent batch it arrived on.
type BackendTotals struct {
	// Name identifies the backend within the roster.
	Name string
	// Grants counts executed work grants: shards under the static
	// distribution, claimed queue chunks under the dynamic ones.
	Grants int64
	// Residues is the total database residues the backend has processed.
	Residues int64
	// SimSeconds is the backend's accumulated simulated busy time.
	SimSeconds float64
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

// totalsDelta is one search's contribution to the cumulative accounting:
// functionally executed work grants and residues per backend, the
// per-backend simulated busy time and the kernel operation counts. Deltas are committed only for searches
// whose results reach the caller, so a failed batch that gets retried
// query-by-query never counts its discarded partial work twice.
type totalsDelta struct {
	grants, residues []int64
	simSeconds       []float64
	stats            Stats
}

// commitTotals folds completed searches into the cumulative accounting.
func (d *Dispatcher) commitTotals(deltas []totalsDelta) {
	if len(deltas) == 0 {
		return
	}
	d.totalsMu.Lock()
	defer d.totalsMu.Unlock()
	for _, td := range deltas {
		d.queries++
		for i := range d.totals {
			d.totals[i].Grants += td.grants[i]
			d.totals[i].Residues += td.residues[i]
			d.totals[i].SimSeconds += td.simSeconds[i]
		}
		d.stats.Add(td.stats)
	}
}

// Backends returns the dispatcher's roster.
func (d *Dispatcher) Backends() []Backend { return d.backends }

// DB returns the dispatcher's database.
func (d *Dispatcher) DB() *seqdb.Database { return d.db }

// resolveShares validates explicit shares or derives model-balanced ones.
// Derived shares are quantised to 1/128 so that queries of nearby lengths
// resolve to the same share vector and hit the cached shard split instead
// of materialising a fresh one per distinct query length, and the
// derivation itself — a full-database cost estimate per backend — is
// cached per cost-relevant option key so per-query traffic does not
// re-plan the whole database every search.
func (d *Dispatcher) resolveShares(queryLen int, opt DispatchOptions) ([]float64, error) {
	if opt.Shares == nil {
		key := shareKey(queryLen, opt.Search)
		d.mu.Lock()
		if s, ok := d.autoShares[key]; ok {
			d.mu.Unlock()
			return s, nil
		}
		d.mu.Unlock()
		shares := OptimalShares(d.db.OrderLengths(), queryLen, opt.Search, d.backends)
		for i := range shares {
			shares[i] = math.Round(shares[i]*128) / 128
		}
		d.mu.Lock()
		if len(d.autoShares) >= maxCachedPlans {
			d.autoShares = make(map[string][]float64)
		}
		d.autoShares[key] = shares
		d.mu.Unlock()
		return shares, nil
	}
	if err := validateShares(opt.Shares, len(d.backends)); err != nil {
		return nil, err
	}
	return opt.Shares, nil
}

// shareKey identifies every option that feeds the share derivation's cost
// estimate (per-backend threads are fixed by the roster).
func shareKey(queryLen int, opt SearchOptions) string {
	return fmt.Sprintf("%d|%+v|%d|%v|%d",
		queryLen, opt.Params, opt.LongSeqThreshold, opt.Schedule, opt.ChunkSize)
}

// validateShares checks an explicit static share vector against a roster
// size.
func validateShares(shares []float64, backends int) error {
	if len(shares) != backends {
		return fmt.Errorf("core: %d shares for %d backends", len(shares), backends)
	}
	var sum float64
	for i, s := range shares {
		if s < 0 {
			return fmt.Errorf("core: negative share %v for backend %d", s, i)
		}
		sum += s
	}
	if sum == 0 {
		return fmt.Errorf("core: shares sum to zero")
	}
	return nil
}

// maxCachedSplits and maxCachedChunkSets bound the dispatcher's caches: a
// long-running cluster serving pathological option mixes flushes and
// rebuilds rather than growing without bound.
const (
	maxCachedSplits    = 16
	maxCachedChunkSets = 8
)

// shardsFor returns (and caches) the static split for a share vector.
func (d *Dispatcher) shardsFor(shares []float64) *shardSet {
	key := fmt.Sprintf("%.9v", shares)
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.shards[key]; ok {
		return s
	}
	if len(d.shards) >= maxCachedSplits {
		d.shards = make(map[string]*shardSet)
	}
	dbs, idx := d.db.SplitN(shares)
	s := &shardSet{shares: shares, dbs: dbs, idx: idx}
	d.shards[key] = s
	return s
}

// chunkWindows computes device-level chunk boundaries over a
// length-sorted processing order: windows of consecutive sequences whose
// residues accumulate to the sched.ChunkSizes targets. Dynamic chunks are
// returned heaviest-first (the reversed, longest-sequences-first order, as
// sched.Simulate's in-device dynamic policy dispatches), Guided chunks in
// front-to-back order so the shrinking grants end with the smallest.
// target <= 0 derives the default granularity of roughly chunksPerBackend
// chunks per worker.
func chunkWindows(lengths []int, dist Distribution, workers int, target int64) [][2]int {
	var total int64
	for _, l := range lengths {
		total += int64(l)
	}
	if target <= 0 {
		target = total / int64(chunksPerBackend*workers)
	}
	if target < 1 {
		target = 1
	}
	policy := sched.Dynamic
	if dist == DistGuided {
		policy = sched.Guided
	}
	sizes := sched.ChunkSizes(policy, total, workers, target)
	var windows [][2]int
	start := 0
	for _, size := range sizes {
		if start >= len(lengths) {
			break
		}
		end := start
		var got int64
		for end < len(lengths) && got < size {
			got += int64(lengths[end])
			end++
		}
		windows = append(windows, [2]int{start, end})
		start = end
	}
	// Residue targets can under-run when single sequences exceed the
	// chunk size; sweep up the remainder as one final chunk.
	if start < len(lengths) {
		windows = append(windows, [2]int{start, len(lengths)})
	}
	if policy == sched.Dynamic {
		for i, j := 0, len(windows)-1; i < j; i, j = i+1, j-1 {
			windows[i], windows[j] = windows[j], windows[i]
		}
	}
	return windows
}

// chunksFor returns (and caches) the device-level chunk partition for a
// dynamic distribution, materialised as sub-databases plus parent index
// maps, in consumption order.
func (d *Dispatcher) chunksFor(opt DispatchOptions) *chunkSet {
	target := opt.ChunkResidues
	if target <= 0 {
		target = d.db.Residues() / int64(chunksPerBackend*len(d.backends))
	}
	if target < 1 {
		target = 1
	}
	key := chunkKey{dist: opt.Dist, chunkResidues: target}
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.chunks[key]; ok {
		return c
	}
	if len(d.chunks) >= maxCachedChunkSets {
		d.chunks = make(map[chunkKey]*chunkSet)
	}
	c := &chunkSet{}
	for _, w := range chunkWindows(d.db.OrderLengths(), opt.Dist, len(d.backends), target) {
		cdb, idx := d.db.OrderSlice(w[0], w[1])
		c.dbs = append(c.dbs, cdb)
		c.idx = append(c.idx, idx)
	}
	d.chunks[key] = c
	return c
}

// backendOpt specialises the shared kernel options for one backend.
func backendOpt(opt SearchOptions, b Backend) SearchOptions {
	o := opt
	o.Threads = b.Threads()
	o.TopK = 0
	return o
}

// Search distributes one query over the cluster and merges the score
// lists into caller order — Algorithm 2 with N devices. It is the
// context-free convenience root; serving paths use SearchContext.
//
//sw:ctxroot
func (d *Dispatcher) Search(query *sequence.Sequence, opt DispatchOptions) (*ClusterResult, error) {
	return d.SearchContext(context.Background(), query, opt)
}

// SearchContext is Search with cancellation (see SearchBatchContext for
// the semantics).
func (d *Dispatcher) SearchContext(ctx context.Context, query *sequence.Sequence, opt DispatchOptions) (*ClusterResult, error) {
	res, err := d.SearchBatchContext(ctx, []*sequence.Sequence{query}, opt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SearchBatch runs a batch of queries over the cluster. The shard split
// (or chunk partition) is resolved once for the whole batch and every
// backend engine caches its lane packings, so per-query work reduces to
// the query-profile setup and the kernels themselves. With model-balanced
// static shares the split is derived from the mean query length. It is
// the context-free convenience root; serving paths use SearchBatchContext.
//
//sw:ctxroot
func (d *Dispatcher) SearchBatch(queries []*sequence.Sequence, opt DispatchOptions) ([]*ClusterResult, error) {
	return d.SearchBatchContext(context.Background(), queries, opt)
}

// SearchBatchContext is SearchBatch with cancellation: the context is
// checked at every query boundary, so an abandoned batch (a closed stream,
// a disconnected HTTP client) stops burning backend time mid-batch instead
// of running to completion. Kernels already launched finish their current
// query; nothing is left running after the call returns.
func (d *Dispatcher) SearchBatchContext(ctx context.Context, queries []*sequence.Sequence, opt DispatchOptions) ([]*ClusterResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	for i, q := range queries {
		if q == nil {
			return nil, fmt.Errorf("core: nil query %d", i)
		}
	}
	var search func(q *sequence.Sequence) (*ClusterResult, totalsDelta, error)
	switch {
	case d.fixed != nil:
		// A fixed shard assignment admits no re-splitting and no chunk
		// queue: each backend can only ever search the shard it owns.
		if opt.Dist != DistStatic {
			return nil, fmt.Errorf("core: %v distribution over a fixed shard assignment (only static is valid)", opt.Dist)
		}
		set := d.fixed
		search = func(q *sequence.Sequence) (*ClusterResult, totalsDelta, error) {
			return d.searchStatic(ctx, q, opt, set)
		}
	case opt.Dist == DistStatic:
		meanLen := 0
		for _, q := range queries {
			meanLen += q.Len()
		}
		meanLen /= len(queries)
		shares, err := d.resolveShares(meanLen, opt)
		if err != nil {
			return nil, err
		}
		set := d.shardsFor(shares)
		search = func(q *sequence.Sequence) (*ClusterResult, totalsDelta, error) {
			return d.searchStatic(ctx, q, opt, set)
		}
	case opt.Dist == DistDynamic || opt.Dist == DistGuided:
		set := d.chunksFor(opt)
		search = func(q *sequence.Sequence) (*ClusterResult, totalsDelta, error) {
			return d.searchDynamic(ctx, q, opt, set)
		}
	default:
		return nil, fmt.Errorf("core: unknown distribution %v", opt.Dist)
	}
	out := make([]*ClusterResult, len(queries))
	deltas := make([]totalsDelta, 0, len(queries))
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, td, err := search(q)
		if err != nil {
			return nil, err
		}
		out[i] = r
		deltas = append(deltas, td)
	}
	// Totals commit only when the whole batch succeeds: results of a
	// failed batch are discarded by the caller (and typically retried),
	// so counting their partial work would double-book the retry.
	d.commitTotals(deltas)
	return out, nil
}

// searchStatic runs every backend over its pre-split shard concurrently
// (each launch is an asynchronous offload region; the paper's signal/wait
// pair generalises to one signal per backend) and merges by shard index
// maps. Backends with empty shards are skipped entirely, exactly as
// Algorithm 2 degenerates to Algorithm 1 at a 0% coprocessor share.
func (d *Dispatcher) searchStatic(ctx context.Context, query *sequence.Sequence, opt DispatchOptions, set *shardSet) (*ClusterResult, totalsDelta, error) {
	n := len(d.backends)
	opt.Search.profile = new(sharedProfile)
	results := make([]*Result, n)
	errs := make([]error, n)
	start := time.Now()
	sigs := make([]*offload.Signal, n)
	for i, b := range d.backends {
		if set.dbs[i].Len() == 0 {
			continue
		}
		i, b := i, b
		sigs[i] = offload.Start(func() {
			results[i], errs[i] = b.Search(ctx, set.dbs[i], query, backendOpt(opt.Search, b))
		})
	}
	for _, sig := range sigs {
		if sig != nil {
			sig.Wait()
		}
	}
	wall := time.Since(start).Seconds()
	if err := firstErr(errs...); err != nil {
		return nil, totalsDelta{}, err
	}

	out := &ClusterResult{PerBackend: make([]BackendStats, n)}
	scores := make([]int32, d.db.Len())
	grants := make([]int64, n)
	residues := make([]int64, n)
	simSeconds := make([]float64, n)
	for i, b := range d.backends {
		st := &out.PerBackend[i]
		st.Name = b.Name()
		st.Chunks = 1
		if d.db.Residues() > 0 {
			st.Share = float64(set.dbs[i].Residues()) / float64(d.db.Residues())
		}
		r := results[i]
		if r == nil {
			st.Chunks = 0
			continue
		}
		st.Threads = r.Threads
		st.SimSeconds = r.SimSeconds
		grants[i] = 1
		residues[i] = set.dbs[i].Residues()
		simSeconds[i] = r.SimSeconds
		for j, s := range r.Scores {
			scores[set.idx[i][j]] = s
		}
		out.Stats.Add(r.Stats)
		out.Threads += r.Threads
		if r.SimSeconds > out.SimSeconds {
			out.SimSeconds = r.SimSeconds
		}
	}
	out.Scores = scores
	out.WallSeconds = wall
	d.finishResult(out, opt)
	return out, totalsDelta{grants: grants, residues: residues, simSeconds: simSeconds, stats: out.Stats}, nil
}

// searchDynamic drains a shared chunk queue with one worker goroutine per
// backend: each backend claims the next chunk as it goes idle (real work
// stealing over lane-group chunks). Scores land in disjoint index ranges,
// so the merge is race-free by construction. Simulated per-backend times
// come from the deterministic device-level schedule replay (Plan), keeping
// simulated results independent of host timing jitter exactly as
// internal/sched separates Parallel from Simulate.
func (d *Dispatcher) searchDynamic(ctx context.Context, query *sequence.Sequence, opt DispatchOptions, set *chunkSet) (*ClusterResult, totalsDelta, error) {
	n := len(d.backends)
	opt.Search.profile = new(sharedProfile)
	scores := make([]int32, d.db.Len())
	statsPer := make([]Stats, n)
	claimed := make([]int64, n)
	claimedRes := make([]int64, n)
	errs := make([]error, n)

	start := time.Now()
	var next int64
	var mu sync.Mutex
	pop := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(len(set.dbs)) {
			return -1
		}
		c := int(next)
		next++
		return c
	}
	sigs := make([]*offload.Signal, n)
	for i, b := range d.backends {
		i, b := i, b
		sigs[i] = offload.Start(func() {
			bopt := backendOpt(opt.Search, b)
			for {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				c := pop()
				if c < 0 {
					return
				}
				r, err := b.Search(ctx, set.dbs[c], query, bopt)
				if err != nil {
					errs[i] = err
					return
				}
				claimed[i]++
				claimedRes[i] += set.dbs[c].Residues()
				for j, s := range r.Scores {
					scores[set.idx[c][j]] = s
				}
				statsPer[i].Add(r.Stats)
			}
		})
	}
	for _, sig := range sigs {
		sig.Wait()
	}
	wall := time.Since(start).Seconds()
	if err := firstErr(errs...); err != nil {
		return nil, totalsDelta{}, err
	}

	out := &ClusterResult{PerBackend: make([]BackendStats, n)}
	out.Scores = scores
	out.WallSeconds = wall
	for i := range statsPer {
		out.Stats.Add(statsPer[i])
	}
	// Simulated accounting: replay the deterministic device-level
	// schedule over the model-predicted chunk costs.
	plan := d.planChunks(query.Len(), opt, set)
	for i, b := range d.backends {
		st := &out.PerBackend[i]
		st.Name = b.Name()
		st.Share = plan.Shares[i]
		st.Chunks = plan.Chunks[i]
		st.SimSeconds = plan.Seconds[i]
		if plan.Chunks[i] > 0 {
			st.Threads = effectiveThreads(b)
			out.Threads += st.Threads
		}
	}
	out.SimSeconds = plan.Makespan
	d.finishResult(out, opt)
	return out, totalsDelta{grants: claimed, residues: claimedRes, simSeconds: plan.Seconds, stats: out.Stats}, nil
}

// finishResult computes the derived fields shared by both distributions:
// GCUPS rates and the merged, sorted hit list of step 4.
func (d *Dispatcher) finishResult(out *ClusterResult, opt DispatchOptions) {
	if out.SimSeconds > 0 {
		out.SimGCUPS = float64(out.Stats.Cells) / out.SimSeconds / 1e9
	}
	if out.WallSeconds > 0 {
		out.WallGCUPS = float64(out.Stats.Cells) / out.WallSeconds / 1e9
	}
	hits := make([]Hit, d.db.Len())
	for i, s := range out.Scores {
		hits[i] = Hit{SeqIndex: i, ID: d.db.Seq(i).ID, Score: s}
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].Score > hits[b].Score })
	if opt.Search.TopK > 0 && opt.Search.TopK < len(hits) {
		hits = hits[:opt.Search.TopK]
	}
	out.Hits = hits
}

func effectiveThreads(b Backend) int {
	if t := b.Threads(); t > 0 {
		return t
	}
	return b.Model().MaxThreads()
}

// Plan is a predicted cluster schedule: per-backend busy seconds and the
// completion time a distribution would achieve, computed from the device
// cost models alone (no kernels run). It powers distribution-strategy
// comparisons at full database scale, where functional execution is
// prohibitive but the shape-level simulation is exact.
type Plan struct {
	// Dist is the planned distribution.
	Dist Distribution
	// Shares is the residue fraction scheduled onto each backend.
	Shares []float64
	// Seconds is each backend's predicted busy time, including region
	// launch and PCIe transfers for offload devices.
	Seconds []float64
	// Chunks is the number of work grants per backend (the shard counts
	// as one under the static distribution).
	Chunks []int
	// Makespan is the predicted completion time: the slowest backend plus
	// the final host-side sort of the merged score list. Backend times
	// exclude per-shard/per-chunk sorting and the final sort is charged
	// identically to every distribution, so makespans are directly
	// comparable across strategies. (The functional static path reports
	// SimSeconds as the max of per-device Engine times — which do include
	// each shard's own sort — mirroring Algorithm 2's original
	// accounting.)
	Makespan float64
}

// Plan predicts the cluster schedule for a query length without running
// any kernels.
func (d *Dispatcher) Plan(queryLen int, opt DispatchOptions) (*Plan, error) {
	switch opt.Dist {
	case DistStatic:
		var set *shardSet
		if d.fixed != nil {
			set = d.fixed
		} else {
			shares, err := d.resolveShares(queryLen, opt)
			if err != nil {
				return nil, err
			}
			set = d.shardsFor(shares)
		}
		parts := make([][]int, len(set.dbs))
		for i, sdb := range set.dbs {
			parts[i] = sdb.OrderLengths()
		}
		return planStaticLengths(parts, queryLen, d.backends, opt, d.db.Len()), nil
	case DistDynamic, DistGuided:
		if d.fixed != nil {
			return nil, fmt.Errorf("core: %v distribution over a fixed shard assignment (only static is valid)", opt.Dist)
		}
		return d.planChunks(queryLen, opt, d.chunksFor(opt)), nil
	}
	return nil, fmt.Errorf("core: unknown distribution %v", opt.Dist)
}

// planStaticLengths prices one static split: per-part compute seconds,
// realised residue shares, and the final host-side sort of the merged
// list. It is the single static-planning pipeline behind both
// Dispatcher.Plan (materialised shards) and PlanLengths (bare lengths).
func planStaticLengths(parts [][]int, queryLen int, backends []Backend, opt DispatchOptions, dbLen int) *Plan {
	p := &Plan{
		Dist:    DistStatic,
		Shares:  make([]float64, len(backends)),
		Seconds: make([]float64, len(backends)),
		Chunks:  make([]int, len(backends)),
	}
	var total int64
	residues := make([]int64, len(parts))
	for i, part := range parts {
		for _, l := range part {
			residues[i] += int64(l)
		}
		total += residues[i]
	}
	for i, b := range backends {
		if total > 0 {
			p.Shares[i] = float64(residues[i]) / float64(total)
		}
		if len(parts[i]) == 0 {
			continue
		}
		p.Seconds[i] = estimateComputeSeconds(parts[i], queryLen, b.Model(), backendOpt(opt.Search, b))
		p.Chunks[i] = 1
		if p.Seconds[i] > p.Makespan {
			p.Makespan = p.Seconds[i]
		}
	}
	p.Makespan += device.HostSortSeconds(dbLen)
	return p
}

// maxCachedPlans bounds the chunk-plan cache.
const maxCachedPlans = 32

// planChunks returns (and caches) the chunk-queue plan for a query length
// over the dispatcher's materialised chunk set, so a batch of same-length
// queries prices the chunk/backend cost matrix once. The key covers every
// cost-relevant option; callers must treat the returned Plan as read-only.
func (d *Dispatcher) planChunks(queryLen int, opt DispatchOptions, set *chunkSet) *Plan {
	key := fmt.Sprintf("%v|%d|%s", opt.Dist, opt.ChunkResidues, shareKey(queryLen, opt.Search))
	d.mu.Lock()
	if p, ok := d.plans[key]; ok {
		d.mu.Unlock()
		return p
	}
	d.mu.Unlock()

	chunkLens := make([][]int, len(set.dbs))
	for c, cdb := range set.dbs {
		chunkLens[c] = cdb.OrderLengths()
	}
	p := planChunkLengths(chunkLens, queryLen, d.backends, opt, d.db.Len())

	d.mu.Lock()
	if len(d.plans) >= maxCachedPlans {
		d.plans = make(map[string]*Plan)
	}
	d.plans[key] = p
	d.mu.Unlock()
	return p
}

// planChunkLengths replays the device-level chunk queue deterministically
// over model-predicted costs: chunks are consumed in queue order and each
// goes to the backend predicted to finish it first. Backend busy times are
// seeded with the one-time region launch and query transfer; every chunk
// charges its own database shipment and score return for offload devices,
// which is the true cost a dynamic distribution pays for flexibility. The
// final host-side merge sort of the full score list closes the makespan.
func planChunkLengths(chunkLens [][]int, queryLen int, backends []Backend, opt DispatchOptions, dbLen int) *Plan {
	n := len(backends)
	costs := make([][]float64, len(chunkLens))
	residues := make([]int64, len(chunkLens))
	for c, lens := range chunkLens {
		costs[c] = make([]float64, n)
		for i, b := range backends {
			costs[c][i] = chunkSeconds(lens, queryLen, b.Model(), backendOpt(opt.Search, b))
		}
		for _, l := range lens {
			residues[c] += int64(l)
		}
	}
	seed := make([]float64, n)
	for i, b := range backends {
		m := b.Model()
		seed[i] = m.RegionSeconds
		if m.OffloadRequired {
			seed[i] += m.TransferSeconds(offload.QueryBytes(queryLen))
		}
	}
	s := sched.ScheduleChunks(len(chunkLens), n, seed, func(chunk, worker int) float64 {
		return costs[chunk][worker]
	})
	p := &Plan{
		Dist:    opt.Dist,
		Shares:  make([]float64, n),
		Seconds: s.Busy,
		Chunks:  s.Chunks,
	}
	var total int64
	perBackend := make([]int64, n)
	for c, w := range s.Assign {
		perBackend[w] += residues[c]
		total += residues[c]
	}
	if total > 0 {
		for i := range p.Shares {
			p.Shares[i] = float64(perBackend[i]) / float64(total)
		}
	}
	p.Makespan = s.Makespan + device.HostSortSeconds(dbLen)
	return p
}

// PlanLengths predicts the cluster schedule from sequence lengths alone —
// no database materialisation, no kernels. This is what lets swbench
// compare distribution strategies over the full 541,561-sequence
// Swiss-Prot in milliseconds, the same shape-level trick the figures use.
func PlanLengths(lengths []int, queryLen int, backends []Backend, opt DispatchOptions) (*Plan, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("core: empty backend roster")
	}
	sorted := append([]int(nil), lengths...)
	sort.Ints(sorted)
	switch opt.Dist {
	case DistStatic:
		shares := opt.Shares
		if shares == nil {
			shares = OptimalShares(sorted, queryLen, opt.Search, backends)
		}
		if err := validateShares(shares, len(backends)); err != nil {
			return nil, err
		}
		parts := seqdb.SplitLengthsN(sorted, shares)
		return planStaticLengths(parts, queryLen, backends, opt, len(sorted)), nil
	case DistDynamic, DistGuided:
		windows := chunkWindows(sorted, opt.Dist, len(backends), opt.ChunkResidues)
		chunkLens := make([][]int, len(windows))
		for c, w := range windows {
			chunkLens[c] = sorted[w[0]:w[1]]
		}
		return planChunkLengths(chunkLens, queryLen, backends, opt, len(sorted)), nil
	}
	return nil, fmt.Errorf("core: unknown distribution %v", opt.Dist)
}

// chunkSeconds predicts one chunk's busy time on one device, plus the
// chunk's own PCIe shipment for offload devices. Unlike estimateSeconds it
// charges neither the parallel-region launch nor the host sort — those are
// per-search, not per-chunk, and the dispatcher seeds/appends them once.
//
// The queue streams chunks through each backend's in-device dynamic
// scheduler with no barrier between chunks (the device keeps its thread
// pool fed from whatever it has claimed, as SWAPHI's multi-coprocessor
// distribution does), so a chunk's compute cost is its aggregate cycles
// over the device's whole-device throughput; the end-of-search drain tail
// is bounded by one lane group per thread and neglected.
func chunkSeconds(lengths []int, m int, dev *device.Model, opt SearchOptions) float64 {
	if len(lengths) == 0 || m == 0 {
		return 0
	}
	costs, residues, threads := shapeCosts(lengths, m, dev, opt)
	var cycles float64
	for _, c := range costs {
		cycles += c + dev.DispatchCycles
	}
	seconds := cycles / (float64(threads) * dev.ThreadRate(threads))
	if dev.OffloadRequired {
		in := offload.DatabaseBytes(residues, len(lengths))
		out := offload.ScoreBytes(len(lengths))
		seconds = offload.RegionSeconds(dev, in, out, seconds)
	}
	return seconds
}
