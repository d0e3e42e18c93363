package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"heterosw/internal/alphabet"
	"heterosw/internal/device"
	"heterosw/internal/offload"
	"heterosw/internal/profile"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
)

// Engine is a single-device Smith-Waterman database-search engine: the
// paper's Algorithm 1. It owns a database (already pre-processed per step
// 2), a device model for simulated timing, and cached lane-group packings.
// An Engine is safe for concurrent Search calls.
type Engine struct {
	db  *seqdb.Database
	dev *device.Model
	// pool lends the workers their kernel scratch; an EngineBackend shares
	// one among the engines of all its chunks.
	pool *bufferPool

	mu    sync.Mutex // guards parts
	parts map[partKey]*partition
}

type partKey struct {
	lanes, longThreshold int
}

// partition is a cached work decomposition: inter-task lane groups plus
// the long sequences routed to the intra-task kernel.
type partition struct {
	groups []*seqdb.LaneGroup
	long   []int // database indices (caller order)
	// order is the dispatch order over the work items, which are numbered
	// groups first, then long subjects (the numbering the per-item cost
	// vector keeps, so the simulated schedule does not depend on the real
	// dispatch order). The long subjects go out first, heaviest first, so
	// the one indivisible titin-class item starts with the search instead
	// of after the last lane group; the groups follow in packing order.
	order []int
}

// dispatchOrder builds partition.order for nGroups lane groups and long
// subjects of the given lengths.
func dispatchOrder(nGroups int, longLens []int) []int {
	order := make([]int, len(longLens), nGroups+len(longLens))
	for i := range order {
		order[i] = nGroups + i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return longLens[order[a]-nGroups] > longLens[order[b]-nGroups]
	})
	for i := 0; i < nGroups; i++ {
		order = append(order, i)
	}
	return order
}

// bufferPool keeps kernel scratch between searches, by lane width, so a
// search borrows its workers' Buffers instead of building them: a
// dispatcher runs one Engine.Search per database chunk, some fifty per
// query, and every one of them used to allocate its own.
type bufferPool struct {
	mu sync.Mutex
	//sw:guardedBy(mu)
	free map[int][]*Buffers
}

func newBufferPool() *bufferPool {
	return &bufferPool{free: make(map[int][]*Buffers)}
}

// get returns scratch for a lane width, pooled when there is one.
func (p *bufferPool) get(lanes int) *Buffers {
	p.mu.Lock()
	defer p.mu.Unlock()
	free := p.free[lanes]
	if n := len(free); n > 0 {
		b := free[n-1]
		p.free[lanes] = free[:n-1]
		return b
	}
	return NewBuffers(lanes)
}

// put returns scratch to the pool. The pool keeps what one search's workers
// borrow; the surplus of concurrent searches is left to the collector.
func (p *bufferPool) put(b *Buffers) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if free := p.free[b.lanes]; len(free) < runtime.GOMAXPROCS(0) {
		p.free[b.lanes] = append(free, b)
	}
}

// sharedProfile lets the searches of one query over many databases — the
// chunks of a dispatcher, on all its backends — build the query's profiles
// once. Without it every chunk search built them again: for a
// 2,000-residue query 8 MB of identical tables, garbage that cost a server
// more resident memory than all the scratch the pools keep. The build
// waits for the first search, which has checked the matrix against the
// query's alphabet.
type sharedProfile struct {
	once sync.Once
	qp   *profile.Query
}

// get returns the profiles, building them on first use; a nil receiver
// builds a private one.
func (s *sharedProfile) get(query *sequence.Sequence, m *submat.Matrix) *profile.Query {
	if s == nil {
		return profile.NewQuery(query.Residues, m)
	}
	s.once.Do(func() { s.qp = profile.NewQuery(query.Residues, m) })
	return s.qp
}

// NewEngine builds an engine over a database for a device model.
func NewEngine(db *seqdb.Database, dev *device.Model) (*Engine, error) {
	if db == nil {
		return nil, fmt.Errorf("core: nil database")
	}
	if dev == nil {
		return nil, fmt.Errorf("core: nil device model")
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	return &Engine{db: db, dev: dev, pool: newBufferPool(), parts: make(map[partKey]*partition)}, nil
}

// DB returns the engine's database.
func (e *Engine) DB() *seqdb.Database { return e.db }

// Device returns the engine's device model.
func (e *Engine) Device() *device.Model { return e.dev }

// partitionFor returns (and caches) the work decomposition for a lane
// width and long-sequence threshold.
func (e *Engine) partitionFor(lanes, longThreshold int) *partition {
	key := partKey{lanes, longThreshold}
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.parts[key]; ok {
		return p
	}
	groups, long := e.db.Partition(lanes, longThreshold)
	longLens := make([]int, len(long))
	for i, idx := range long {
		longLens[i] = e.db.Seq(idx).Len()
	}
	p := &partition{groups: groups, long: long, order: dispatchOrder(len(groups), longLens)}
	e.parts[key] = p
	return p
}

// SearchOptions configures one database search.
type SearchOptions struct {
	// Params selects the kernel variant, gap penalties and blocking.
	Params
	// Matrix is the substitution matrix (BLOSUM62 when nil, as in the
	// paper).
	Matrix *submat.Matrix
	// Threads is the simulated device thread count (device maximum when
	// 0).
	Threads int
	// Schedule is the OpenMP scheduling policy for the group loop; the
	// paper found dynamic to perform best.
	Schedule sched.Policy
	// ChunkSize is the scheduling chunk (1 when 0).
	ChunkSize int
	// Workers caps real host goroutines for the functional execution
	// (GOMAXPROCS when 0). It does not affect simulated time.
	Workers int
	// LongSeqThreshold routes database sequences longer than this to the
	// intra-task kernel (see DefaultLongSeqThreshold). 0 selects the
	// default for vector variants; negative disables routing.
	LongSeqThreshold int
	// TopK truncates the hit list (all hits when 0).
	TopK int

	// profile is set by a dispatcher on the options of one query's chunk
	// searches.
	profile *sharedProfile
}

// matrixFor resolves the substitution matrix against a database alphabet:
// an explicit Matrix wins, otherwise the alphabet's conventional default
// (BLOSUM62 for protein as in the paper, the blastn +2/-3 scheme for DNA).
func (o SearchOptions) matrixFor(alpha *alphabet.Alphabet) *submat.Matrix {
	if o.Matrix != nil {
		return o.Matrix
	}
	if alpha == alphabet.DNA {
		return submat.NUC
	}
	return submat.BLOSUM62
}

// byteViable reports whether the search's matrix admits the ladder's byte
// pass, before any query profile exists. The alphabet defaults (BLOSUM62,
// NUC) do.
func (o SearchOptions) byteViable() bool {
	if o.Matrix == nil {
		return true
	}
	_, ok := profile.ByteBias(o.Matrix)
	return ok
}

// firstRung resolves the lane width a search on dev packs its groups for
// and whether its intrinsic kernels start in byte lanes — from the variant,
// from whether the matrix is byte-viable and from the device's register, so
// the kernels, the engine and the shape-level planner cannot disagree.
func firstRung(v Variant, viable bool, dev *device.Model) (lanes int, eightBit bool) {
	switch {
	case v.Vec() == VecNone:
		return 1, false
	case v.Vec() == VecIntrinsic && byteLanes(viable, dev.ByteLanes()):
		return dev.ByteLanes(), true
	}
	return dev.Lanes, false
}

// Hit is one database match.
type Hit struct {
	// SeqIndex is the database index (caller order) of the subject.
	SeqIndex int
	// ID is the subject's FASTA identifier.
	ID string
	// Score is the optimal local alignment score.
	Score int32
}

// Result reports one search: the score list of step 4, plus functional and
// simulated performance accounting.
type Result struct {
	// Hits is sorted by descending score (ties by database order) and
	// truncated to TopK when requested.
	Hits []Hit
	// Scores holds the raw score of every database sequence, indexed by
	// caller order, regardless of TopK.
	Scores []int32
	// Stats aggregates kernel operation counts.
	Stats Stats
	// Threads is the simulated thread count used.
	Threads int
	// SimSeconds is the simulated wall time on the device model,
	// including offload transfers for coprocessors; SimGCUPS is
	// Stats.Cells/SimSeconds.
	SimSeconds float64
	SimGCUPS   float64
	// Imbalance is the simulated schedule's load imbalance.
	Imbalance float64
	// WallSeconds and WallGCUPS report the real execution of the pure-Go
	// kernels on the host, for transparency.
	WallSeconds float64
	WallGCUPS   float64
}

// Search performs Algorithm 1: alignments of the query against every
// database sequence in parallel, returning sorted similarity scores with
// functional and simulated timing.
func (e *Engine) Search(query *sequence.Sequence, opt SearchOptions) (*Result, error) {
	if query == nil {
		return nil, fmt.Errorf("core: nil query")
	}
	if err := opt.Params.Validate(); err != nil {
		return nil, err
	}
	threads := opt.Threads
	if threads <= 0 {
		threads = e.dev.MaxThreads()
	}
	if threads > e.dev.MaxThreads() {
		return nil, fmt.Errorf("core: %d threads exceeds %s's %d hardware threads",
			threads, e.dev.Short, e.dev.MaxThreads())
	}
	alpha := e.db.Alphabet()
	matrix := opt.matrixFor(alpha)
	if matrix.Alphabet() != alpha {
		return nil, fmt.Errorf("core: %s matrix %s against a %s database",
			matrix.Alphabet().Name(), matrix.Name(), alpha.Name())
	}
	if qa := query.Alphabet(); qa != alpha {
		return nil, fmt.Errorf("core: %s query %s against a %s database",
			qa.Name(), query.ID, alpha.Name())
	}
	qp := opt.profile.get(query, matrix)
	lanes, eightBit := firstRung(opt.Variant, qp.Bias8Viable(), e.dev)
	longThr := opt.LongSeqThreshold
	switch {
	case longThr < 0 || opt.Variant.Vec() == VecNone:
		// The scalar kernel has no lane-occupancy problem; every
		// sequence already is its own chunk.
		longThr = 0
	case longThr == 0:
		longThr = DefaultLongSeqThreshold
	}
	part := e.partitionFor(lanes, longThr)
	groups, long := part.groups, part.long
	class := opt.KernelClass()
	class.EightBit = eightBit
	intrinsic := opt.Variant.Vec() == VecIntrinsic
	m := qp.Len()

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Per-worker scratch, borrowed on a worker's first item.
	bufs := make([]*Buffers, workers)
	statsPer := make([]Stats, workers)
	items := len(part.order)
	// overflow holds each group's escalation recompute cells, the one input
	// of its simulated cost that is not known when its first pass returns.
	overflow := make([]int64, len(groups))
	costs := make([]float64, items)
	scores := make([]int32, e.db.Len())
	// settle stores the scores of byte lanes back from the 16-bit rung.
	settle := func(done []escalation) {
		for i := range done {
			d := &done[i]
			scores[d.g.SeqIdx[d.lane]] = d.score
			if d.wide() {
				overflow[d.item] += int64(m) * int64(d.g.Lens[d.lane])
			}
		}
	}

	start := time.Now()
	sched.Parallel(items, workers, func(pos, worker int) {
		if bufs[worker] == nil {
			bufs[worker] = e.pool.get(lanes)
		}
		buf := bufs[worker]
		i := part.order[pos]
		if i < len(groups) {
			g := groups[i]
			var got []int32
			var st Stats
			if intrinsic {
				got = buf.laneScores[:g.Lanes]
				st = alignGroupLadder(qp, g, opt.Params, buf, got, i)
			} else {
				got, st = AlignGroup(qp, g, opt.Params, buf)
			}
			for l, idx := range g.SeqIdx {
				if idx >= 0 {
					scores[idx] = got[l]
				}
			}
			overflow[i] = st.OverflowCells
			statsPer[worker].Add(st)
			settle(buf.escalate(qp, opt.Params, &statsPer[worker], false))
			return
		}
		// Long sequences: intra-task kernel, one chunk per sequence.
		idx := long[i-len(groups)]
		subject := e.db.Seq(idx).Residues
		cells := int64(m) * int64(len(subject))
		st := Stats{
			Cells: cells, PaddedCells: cells, IntraCells: cells,
			Columns: int64(len(subject)), Alignments: 1, Groups: 1,
		}
		scores[idx] = alignPairStriped(qp, subject, opt.Params, buf, &st)
		statsPer[worker].Add(st)
		shape := device.Shape{Width: len(subject), Lanes: 1, Residues: int64(len(subject)), Intra: true}
		costs[i] = e.dev.GroupCost(class, m, shape, threads, 0)
	})
	// Each worker's sweep ends with fewer than one escalation group queued;
	// the workers run those last groups side by side.
	sched.Parallel(workers, workers, func(w, _ int) {
		if buf := bufs[w]; buf != nil {
			settle(buf.escalate(qp, opt.Params, &statsPer[w], true))
			e.pool.put(buf)
		}
	})
	wall := time.Since(start).Seconds()
	for i, g := range groups {
		shape := device.Shape{Width: g.Width, Lanes: g.Lanes, Residues: g.Residues}
		costs[i] = e.dev.GroupCost(class, m, shape, threads, overflow[i])
	}

	var stats Stats
	for i := range statsPer {
		stats.Add(statsPer[i])
	}
	sim := sched.Simulate(costs, threads, opt.Schedule, opt.ChunkSize, e.dev.DispatchCycles)
	seconds := e.dev.Seconds(sim.Makespan, threads)
	if e.dev.OffloadRequired {
		in := offload.QueryBytes(m) + offload.DatabaseBytes(e.db.Residues(), e.db.Len())
		out := offload.ScoreBytes(e.db.Len())
		seconds = offload.RegionSeconds(e.dev, in, out, seconds)
	}
	// Step 4: serial host-side sort of the score list.
	seconds += device.HostSortSeconds(e.db.Len())

	res := &Result{
		Scores:      scores,
		Stats:       stats,
		Threads:     threads,
		SimSeconds:  seconds,
		Imbalance:   sim.Imbalance(),
		WallSeconds: wall,
	}
	if seconds > 0 {
		res.SimGCUPS = float64(stats.Cells) / seconds / 1e9
	}
	if wall > 0 {
		res.WallGCUPS = float64(stats.Cells) / wall / 1e9
	}
	res.Hits = e.sortHits(scores, opt.TopK)
	return res, nil
}

// sortHits implements step 4: similarity scores in descending order.
func (e *Engine) sortHits(scores []int32, topK int) []Hit {
	hits := make([]Hit, len(scores))
	for i, s := range scores {
		hits[i] = Hit{SeqIndex: i, ID: e.db.Seq(i).ID, Score: s}
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].Score > hits[b].Score })
	if topK > 0 && topK < len(hits) {
		hits = hits[:topK]
	}
	return hits
}
