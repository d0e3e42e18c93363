package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"heterosw/internal/alphabet"
	"heterosw/internal/device"
	"heterosw/internal/profile"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
)

// Engine is a Smith-Waterman database-search engine: the paper's Algorithm
// 1 on the host that runs it. It owns a database (already pre-processed per
// step 2), the lane geometry its groups are packed for, and cached
// lane-group packings. An Engine is safe for concurrent Search calls.
type Engine struct {
	db *seqdb.Database
	// dev supplies the lane geometry (Lanes, ByteLanes) and nothing else:
	// what a search would cost on the modelled device is internal/model's
	// business.
	dev *device.Model
	// pool lends the workers their kernel scratch.
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
	// groups first, then long subjects. The long subjects go out first,
	// heaviest first, so the one indivisible titin-class item starts with
	// the search instead of after the last lane group. The groups follow
	// widest first, so the last items handed out are the narrow ones that
	// fill the other workers' tails.
	order []int
}

// dispatchOrder builds partition.order for lane groups of the given widths
// and long subjects of the given lengths.
func dispatchOrder(groupWidths, longLens []int) []int {
	n := len(groupWidths)
	order := make([]int, 0, n+len(longLens))
	for _, i := range descending(longLens) {
		order = append(order, n+i)
	}
	return append(order, descending(groupWidths)...)
}

// descending returns the indices of lens by descending value, ties in index
// order. It sorts rather than reverses: an unsorted database packs its
// groups in no width order.
func descending(lens []int) []int {
	idx := make([]int, len(lens))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(lens[b], lens[a]) })
	return idx
}

// bufferPool keeps kernel scratch between searches, by lane width, so a
// search borrows its workers' Buffers instead of building them.
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

// NewEngine builds an engine over a database; dev supplies the lane
// geometry the groups are packed for.
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
	widths := make([]int, len(groups))
	for i, g := range groups {
		widths[i] = g.Width
	}
	longLens := make([]int, len(long))
	for i, idx := range long {
		longLens[i] = e.db.Seq(idx).Len()
	}
	p := &partition{groups: groups, long: long, order: dispatchOrder(widths, longLens)}
	e.parts[key] = p
	return p
}

// SearchOptions configures one database search, and what the planner
// assumes when it prices one.
type SearchOptions struct {
	// Params holds the gap penalties; its variant and blocking fields are
	// planner inputs.
	Params
	// Matrix is the substitution matrix (BLOSUM62 when nil, as in the
	// paper).
	Matrix *submat.Matrix
	// Schedule is a planner input only, ignored by Engine.Search: the
	// OpenMP scheduling policy of the modelled device's group loop (the
	// paper found dynamic to perform best).
	Schedule sched.Policy
	// Workers caps the host goroutines of a search (GOMAXPROCS when 0).
	Workers int
	// LongSeqThreshold routes database sequences longer than this to the
	// intra-task kernel (see DefaultLongSeqThreshold). 0 selects the
	// default; negative disables routing.
	LongSeqThreshold int
	// TopK is the k of a backend's answer (see SelectAnswer; 0 selects
	// every subject). Engine.Search returns every score whatever it says:
	// the dispatcher selects the hits.
	TopK int
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

// FirstRung resolves the lane width the variant packs its groups for on
// dev and whether its kernels start in byte lanes — from the variant, from
// whether the gap penalties fit a byte (byteGaps) and from the device's
// register. Engine.Search asks it for IntrinsicSP, the ladder every search
// runs, and internal/model prices the serving ladder through it, so the
// engine and the planner cannot disagree about lanes.
func (p Params) FirstRung(dev *device.Model) (lanes int, eightBit bool) {
	switch {
	case p.Variant.Vec() == VecNone:
		return 1, false
	case p.Variant.Vec() == VecIntrinsic && byteLanes(p.byteGaps(), dev.ByteLanes()):
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

// Result reports one search: the score list of step 4 and what the host
// did to compute it.
type Result struct {
	// Hits is a dispatcher search's hit list: sorted by descending score
	// (ties by database order) and TopK long when one was requested (see
	// MergeAnswers). Engine.Search and a scores-only search leave it nil.
	Hits []Hit
	// Scores holds the raw score of every database sequence, indexed by
	// caller order: from Engine.Search, from a lone backend's dispatcher
	// whatever its TopK, and from a sharded dispatcher only for an
	// every-hit search (TopK 0).
	Scores []int32
	// Hist is the score histogram of a dispatcher search that selects hits,
	// Hist[s] sequences scoring s (see MergeAnswers); nil on a scores-only
	// search and when a score exceeds stats.MaxScore.
	Hist []int
	// Top is a backend's Answer for its shard when it returns one instead
	// of Scores, as a remote node does.
	Top *Answer
	// Stats counts the cells computed and the ladder's escalations.
	Stats Stats
	// WallSeconds is the search's wall time on the host.
	WallSeconds float64
}

// Search performs Algorithm 1: alignments of the query against every
// database sequence in parallel, returning every subject's similarity
// score in caller order, the cells and ladder escalations counted, and the
// wall time. It selects no hits: the dispatcher does (SelectAnswer).
func (e *Engine) Search(query *sequence.Sequence, opt SearchOptions) (*Result, error) {
	if query == nil {
		return nil, fmt.Errorf("core: nil query")
	}
	if err := opt.Params.Validate(); err != nil {
		return nil, err
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
	qp := profile.NewQuery(query.Residues, matrix)
	ladder := opt.Params
	ladder.Variant = IntrinsicSP
	lanes, _ := ladder.FirstRung(e.dev)
	longThr := opt.LongSeqThreshold
	switch {
	case longThr < 0:
		longThr = 0
	case longThr == 0:
		longThr = DefaultLongSeqThreshold
	}
	part := e.partitionFor(lanes, longThr)
	groups, long := part.groups, part.long
	m := qp.Len()

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Per-worker scratch, borrowed on a worker's first item.
	bufs := make([]*Buffers, workers)
	statsPer := make([]Stats, workers)
	scores := make([]int32, e.db.Len())
	// settle stores the scores of byte lanes back from the 16-bit rung.
	settle := func(done []escalation) {
		for i := range done {
			d := &done[i]
			scores[d.g.SeqIdx[d.lane]] = d.score
		}
	}

	start := time.Now()
	sched.Parallel(len(part.order), workers, func(pos, worker int) {
		if bufs[worker] == nil {
			bufs[worker] = e.pool.get(lanes)
		}
		buf := bufs[worker]
		i := part.order[pos]
		if i < len(groups) {
			g := groups[i]
			got := buf.laneScores[:g.Lanes]
			st := alignGroupLadder(qp, g, opt.Params, buf, got)
			for l, idx := range g.SeqIdx {
				if idx >= 0 {
					scores[idx] = got[l]
				}
			}
			statsPer[worker].Add(st)
			settle(buf.escalate(qp, opt.Params, &statsPer[worker], false))
			return
		}
		// Long sequences: intra-task kernel, one chunk per sequence.
		idx := long[i-len(groups)]
		subject := e.db.Seq(idx).Residues
		st := Stats{Cells: int64(m) * int64(len(subject))}
		scores[idx] = alignPairStriped(qp, subject, opt.Params, buf, &st)
		statsPer[worker].Add(st)
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

	res := &Result{Scores: scores, WallSeconds: wall}
	for i := range statsPer {
		res.Stats.Add(statsPer[i])
	}
	return res, nil
}
