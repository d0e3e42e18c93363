package heterosw

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"heterosw/internal/core"
	"heterosw/internal/device"
	"heterosw/internal/model"
	"heterosw/internal/qsched"
	"heterosw/internal/stats"
	"heterosw/internal/vec"
)

// ErrClusterClosed is returned by every door (Search, SearchScheduled, Do,
// DoBatch, the HTTP front end and a shard node's endpoints) after
// Cluster.CloseNow.
var ErrClusterClosed = errors.New("heterosw: cluster closed")

// ErrNoSignificance is returned when ReportOptions.EValues is requested
// over a database too small or too degenerate to fit the Gumbel null model
// (the fit needs a few dozen database sequences).
var ErrNoSignificance = errors.New("heterosw: significance fit unavailable")

// MaxAlignHits caps how many hits one search call may decorate with
// tracebacks (ReportOptions.Alignments): every aligned hit costs its lane
// of an O(query x subject) 16-bit lane pass, 16 hits to a group, plus a
// walk back over the blocks its path crosses, and the group's checkpoints
// take up to a byte per query residue and column of its longest subject,
// so the aligned report is bounded far tighter than the score-only one.
// The cap is enforced at the library boundary — the HTTP front end merely
// mirrors it — so an over-eager ReportOptions.TopK fails fast with
// ErrTooManyAlignments instead of re-aligning an arbitrary slice of the
// database.
const MaxAlignHits = 64

// ErrTooManyAlignments is returned when an aligned report would traceback
// more than MaxAlignHits subjects.
var ErrTooManyAlignments = errors.New("heterosw: aligned report exceeds MaxAlignHits tracebacks")

// ClusterOptions configures a Cluster over a database.
//
// A Cluster executes on the host: whatever the options say, a search is one
// engine pass over the whole database with GOMAXPROCS workers. Devices and
// Dist describe the modelled roster that Cluster.Plan prices — the paper's
// Algorithm 2 hardcodes one Xeon host and one Xeon Phi and names a dynamic
// distribution strategy as future work; the planner generalises the roster
// to any number of modelled devices and makes the distribution strategy
// selectable. MaxInFlight and CacheSize tune the cluster's one query
// scheduler, behind every door (Search, SearchScheduled, Do, DoBatch, the
// swserve HTTP front end); Search takes a slot but never the cache.
type ClusterOptions struct {
	// Options carries the shared kernel configuration (matrix, gaps) and
	// the variant the planner prices.
	Options
	// Devices is the modelled roster, e.g. {DeviceXeon, DevicePhi,
	// DevicePhi}. Empty selects the paper's pair {DeviceXeon, DevicePhi}.
	// The planner prices every device at its maximum thread count.
	Devices []DeviceKind
	// Dist selects the planned workload distribution: "static" (Algorithm
	// 2's residue split with model-balanced shares, the default),
	// "dynamic" (a device-level work queue of equal-residue chunks) or
	// "guided" (shrinking chunks).
	Dist string

	// MaxInFlight caps the queries the cluster runs concurrently (default
	// 4), each over every worker; the rest wait in submission order. More
	// in flight keeps a multi-core host busy between one query's phases;
	// 1 runs queries one at a time.
	MaxInFlight int
	// CacheSize is the capacity, in entries, of the cluster's LRU result
	// cache, shared by every scheduled path so repeated queries are free.
	// An entry holds its request's K hits and counters, no score list, so
	// the zero-value default is 512 whatever the database size (only a
	// request for every hit caches one per sequence). Negative disables
	// caching.
	CacheSize int
}

// defaultCacheEntries is the cache capacity when ClusterOptions.CacheSize
// is zero: 512 entries of ten hits stay within a few MiB on any database.
const defaultCacheEntries = 512

// ReportOptions selects the optional reporting phases of one search call.
// The zero value is the plain score pass of the paper's step 4: every
// subject as a hit, by descending score. Report options are part of the
// scheduler cache key, so an aligned result and a score-only result of the
// same query never alias in the cluster's LRU cache.
type ReportOptions struct {
	// Alignments enables reporting phase two: after the vectorised score
	// pass selects the top-K hits, the query is re-aligned against just
	// those K database sequences on the host's workers — a coordinator's
	// too, over its parent index — and each hit gains coordinates, a CIGAR
	// and identity counts (Hit.Alignment). The traceback phase only ever
	// aligns K sequences, never the full database.
	Alignments bool
	// EValues fits a Gumbel null model over the full score distribution,
	// its top 1% trimmed as suspected homologs, and decorates every
	// reported hit with its bit score and E-value (Hit.Significance); the
	// fitted model is returned as Result.Significance. Fails with
	// ErrNoSignificance on databases with fewer than a few dozen sequences.
	EValues bool
	// TopK is this call's K, the length of its hit list; 0 reports every
	// hit. It travels with the query to the dispatcher, which selects
	// exactly K hits — nothing downstream orders or holds more. With
	// Alignments set it is the number of sequences the traceback phase
	// aligns. When a reporting phase is requested and TopK is 0, the
	// reported hit list is bounded at defaultReportHits, so every returned
	// hit is decorated and an unbounded search never re-aligns the whole
	// database.
	TopK int
}

// validate rejects unusable report options.
func (rep ReportOptions) validate() error {
	if rep.TopK < 0 {
		return badRequest("negative report TopK %d", rep.TopK)
	}
	return nil
}

// key fingerprints the report options for the scheduler cache, K included:
// an entry holds the K hits of the request that computed it. The zero value
// — every hit, no reporting phase — maps to the empty string.
func (rep ReportOptions) key() string {
	if rep == (ReportOptions{}) {
		return ""
	}
	return fmt.Sprintf("R:a=%t,e=%t,k=%d|", rep.Alignments, rep.EValues, rep.TopK)
}

// defaultReportHits is the K of a call that sets none where an unbounded
// hit list has no place: the reporting phases, where decorating every hit
// would re-align the entire database, defeating the two-phase design, and
// the HTTP response, where the full score list of a half-million-sequence
// database would be serialised.
const defaultReportHits = 10

// checkReport rejects report options this cluster can never satisfy —
// before the query reaches the scheduler, so an EValues request over a
// too-small database fails at its door without computing its scores. (A
// degenerate zero-variance score distribution can still fail inside the
// fit — only computing the scores reveals it — and fails that query
// alone.)
func (c *Cluster) checkReport(rep ReportOptions) error {
	if rep.EValues {
		if err := stats.FitViable(c.db.Len(), 0); err != nil {
			return fmt.Errorf("%w (%v)", ErrNoSignificance, err)
		}
	}
	if rep.Alignments {
		// The K the traceback phase would actually align, capped by the
		// database itself.
		k := topK(rep)
		if k > c.db.Len() {
			k = c.db.Len()
		}
		if k > MaxAlignHits {
			return fmt.Errorf("%w (%d requested, cap %d)", ErrTooManyAlignments, k, MaxAlignHits)
		}
	}
	return nil
}

// topK resolves the K of one validated request before its score pass
// runs: the request's own, else — when a reporting phase would otherwise
// decorate the whole database — the default bound. 0 means every hit.
func topK(rep ReportOptions) int {
	if rep.TopK == 0 && (rep.Alignments || rep.EValues) {
		return defaultReportHits
	}
	return rep.TopK
}

// engine snapshots the cluster's current dispatcher. Callers must hold the
// returned snapshot for the whole operation instead of re-loading.
func (c *Cluster) engine() *core.Dispatcher { return c.eng.Load() }

// Cluster is a search service over a Database. Every search is a Request
// through one of its doors — Search, SearchScheduled, Do and DoBatch — and
// every door runs the same validation and enters the cluster's one
// scheduler, whose run function is the one executor. A local Cluster
// (NewCluster) runs every search on the host, one engine pass over the
// whole database, and prices the configured device roster on the side
// (Plan); a coordinator (NewDistributedCluster) fans searches out to
// shard nodes. A Cluster is safe for concurrent use; lane packings are
// built once so every query reuses them, and every door but Search shares
// one LRU result cache so repeated requests are free.
type Cluster struct {
	db   *Database
	dopt core.DispatchOptions
	// roster is the modelled roster Plan prices (nil on a coordinator);
	// nothing executes on it.
	roster []*device.Model

	// eng is the cluster's current dispatcher, one immutable topology
	// generation. Every search path snapshots it exactly once and threads
	// the snapshot through scoring and decoration — a manifest hot-reload
	// racing an in-flight query can therefore never tear a response or
	// trace back hits against the wrong shards. Local clusters store it
	// once at construction and never again.
	eng atomic.Pointer[core.Dispatcher]

	// topo is the live-topology controller of a distributed coordinator
	// (health prober, manifest generation, hot-reload); nil for local
	// clusters.
	topo *liveTopology

	// sched is the one query scheduler behind every door, built with the
	// cluster with its result cache; keyBase is the constant prefix of its
	// keys (see startScheduler).
	sched   *qsched.Scheduler[job, *Result]
	keyBase string
}

// hostWidth is the lane geometry of the host backend, read from the vec
// tier selected when the cluster is built: a byte lane group is one
// register of the byte rung's kernel — 64 lanes (a zmm) on avx2+vbmi, 32
// (a ymm) on avx2 and under the portable loops. The model's 16-bit lane
// count, the group width of matrices too wide for a byte, is half that.
// The engine reads nothing from the model but its width; the rest is the
// Xeon's.
func hostWidth() *device.Model {
	m := *device.Xeon()
	if l := vec.Info().Lanes8; l > 0 {
		m.Lanes = l / 2
	}
	return &m
}

// NewCluster builds a cluster over the database: one host backend that
// searches the whole database, and the modelled roster and distribution
// strategy of opt for Plan.
func NewCluster(db *Database, opt ClusterOptions) (*Cluster, error) {
	if db == nil {
		return nil, fmt.Errorf("heterosw: nil database")
	}
	kinds := opt.Devices
	if len(kinds) == 0 {
		kinds = []DeviceKind{DeviceXeon, DevicePhi}
	}
	roster := make([]*device.Model, len(kinds))
	for i, k := range kinds {
		m, err := k.model()
		if err != nil {
			return nil, err
		}
		roster[i] = m
	}
	dist := opt.Dist
	if dist == "" {
		dist = "static"
	}
	d, err := core.ParseDistribution(dist)
	if err != nil {
		return nil, fmt.Errorf("heterosw: %s", err)
	}
	search, err := opt.Options.toCore()
	if err != nil {
		return nil, err
	}
	disp, err := core.NewDispatcher(db.db, []core.Backend{core.NewBackend("host", hostWidth(), 0)})
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		db:     db,
		roster: roster,
		dopt:   core.DispatchOptions{Search: search, Dist: d},
	}
	c.eng.Store(disp)
	c.startScheduler(opt.MaxInFlight, opt.CacheSize)
	return c, nil
}

// startScheduler builds the cluster's one query scheduler and its result
// cache; both constructors call it once the rest of the cluster is set.
// cacheSize is ClusterOptions.CacheSize, 0 selecting defaultCacheEntries.
// The key prefix fingerprints every option that can change a result;
// within one cluster the options are fixed, so it is the constant prefix
// of the scheduler cache keys (see cacheKey).
func (c *Cluster) startScheduler(maxInFlight, cacheSize int) {
	if cacheSize == 0 {
		cacheSize = defaultCacheEntries
	}
	c.keyBase = fmt.Sprintf("%+v|", c.dopt.Search)
	c.sched = qsched.New(c.execute, c.cacheKey, qsched.NewCache[*Result](cacheSize), maxInFlight)
}

// Devices returns the modelled roster Plan prices (nil on a coordinator).
func (c *Cluster) Devices() []DeviceKind {
	kinds := make([]DeviceKind, len(c.roster))
	for i, m := range c.roster {
		kinds[i] = DeviceKind(m.Short)
	}
	return kinds
}

// DevicePlan is one modelled device's part in a Plan.
type DevicePlan struct {
	// Name is the device kind suffixed with its roster position, e.g.
	// "phi#1"; Device the kind; Threads the modelled thread count, the
	// device's maximum.
	Name    string
	Device  DeviceKind
	Threads int
	// Share is the fraction of database residues scheduled onto the
	// device; Chunks its work grants (one shard under the static
	// distribution, claimed queue chunks under the dynamic ones); Seconds
	// its predicted busy time, PCIe transfers included.
	Share   float64
	Chunks  int
	Seconds float64
}

// Plan is what the device model predicts for one search: nothing ran.
type Plan struct {
	// Dist is the planned workload distribution.
	Dist string
	// Seconds is the predicted completion time — the slowest device plus
	// the host-side sort of the merged score list — and GCUPS the
	// simulated throughput queryLen x residues / Seconds, the axis of the
	// paper's figures.
	Seconds float64
	GCUPS   float64
	// Devices has one entry per roster device, in roster order.
	Devices []DevicePlan
}

// Plan prices one search of a queryLen-residue query on the cluster's
// modelled roster (ClusterOptions.Devices) under its distribution strategy
// (Dist): Algorithm 2 and its N-device generalisations, from the paper's
// Xeon and Xeon Phi cost models over the database's sequence lengths. A
// one-device roster prices Algorithm 1 on that device. No kernels run, and
// what the cluster's searches execute does not depend on any of it.
func (c *Cluster) Plan(queryLen int) (*Plan, error) {
	if c.roster == nil {
		return nil, fmt.Errorf("heterosw: Plan needs a local cluster (a coordinator has no modelled roster)")
	}
	if queryLen <= 0 {
		return nil, fmt.Errorf("heterosw: query length %d", queryLen)
	}
	p, err := model.PlanLengths(c.db.db.OrderLengths(), queryLen, c.roster, c.dopt)
	if err != nil {
		return nil, err
	}
	out := &Plan{Dist: p.Dist.String(), Seconds: p.Makespan, Devices: make([]DevicePlan, len(c.roster))}
	if p.Makespan > 0 {
		out.GCUPS = float64(queryLen) * float64(c.db.Residues()) / p.Makespan / 1e9
	}
	for i, m := range c.roster {
		out.Devices[i] = DevicePlan{
			Name:    fmt.Sprintf("%s#%d", m.Short, i),
			Device:  DeviceKind(m.Short),
			Threads: m.MaxThreads(),
			Share:   p.Shares[i],
			Chunks:  p.Chunks[i],
			Seconds: p.Seconds[i],
		}
	}
	return out, nil
}

// Stats is one snapshot of a cluster's cumulative accounting across every
// search it has completed, whichever door it arrived on and whichever
// caller sent it: what the searches ran on, the cells and seconds each
// backend spent, and the scheduler's, the result cache's and the precision
// ladder's counters. The swserve /healthz endpoint serves it.
type Stats struct {
	// Queries counts completed query searches; Tracebacks the aligned-hit
	// tracebacks (ReportOptions.Alignments) this process has run. They
	// always run on the cluster's own host, a coordinator's included, so
	// they are counted once and not per backend.
	Queries    int64 `json:"queries"`
	Tracebacks int64 `json:"tracebacks"`
	// VecBackend is the SIMD tier this process's kernels run on.
	VecBackend vec.BackendInfo `json:"vec_backend"`
	// Backends has one entry per backend: the one host backend of a local
	// cluster (Device "host"), or each shard node of a coordinator
	// ("remote").
	Backends []struct {
		Name   string `json:"name"`
		Device string `json:"device"`
		// Workers is the host backend's goroutine count per search (0 for
		// a remote node, whose parallelism is its own).
		Workers int `json:"workers"`
		// Grants counts the searches the backend has run (one per query);
		// Residues the database residues and Cells the cell updates they
		// covered; WallSeconds their accumulated wall time, so
		// Cells/WallSeconds is the backend's realised rate.
		Grants      int64   `json:"grants"`
		Residues    int64   `json:"residues"`
		Cells       int64   `json:"cells"`
		WallSeconds float64 `json:"wall_seconds"`
	} `json:"backends"`
	// Scheduler counts submissions through every door, Search included;
	// Joined those that attached to an identical in-flight query, CacheHits
	// those answered straight from the cache.
	Scheduler struct {
		Submitted int64 `json:"submitted"`
		Joined    int64 `json:"joined"`
		CacheHits int64 `json:"cache_hits"`
	} `json:"scheduler"`
	// Cache counts the result cache's lookups — Hits is
	// Scheduler.CacheHits — and holds its current entry count; all zero
	// when caching is disabled.
	Cache struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
	} `json:"cache"`
	// Ladder counts the precision-ladder escalations of the searches
	// actually computed (cache hits and joined queries count nothing):
	// lanes whose byte pass saturated and went to 16 bits, those that
	// saturated 16 bits and were recomputed at 32, and the cell updates
	// those recomputations cost. Escalated8 per searched subject is the
	// share of the traffic's subjects that are homologs of their queries.
	Ladder struct {
		Escalated8     int64 `json:"escalated_8to16"`
		Escalated16    int64 `json:"escalated_16to32"`
		EscalatedCells int64 `json:"escalated_cells"`
	} `json:"ladder"`
}

// Stats reports the cluster's cumulative accounting. The engine's counters
// are read under one lock and the scheduler's under another, so each group
// agrees with itself: a local cluster's one backend has as many grants as
// there were queries, and the cache's hits are the scheduler's.
func (c *Cluster) Stats() Stats {
	t, s := c.engine().Totals(), c.sched.Stats()
	st := Stats{Queries: t.Queries, Tracebacks: t.Tracebacks, VecBackend: vec.Info()}
	device, workers := "remote", 0
	if c.topo == nil {
		device, workers = "host", runtime.GOMAXPROCS(0)
	}
	// Grow sizes the slice without spelling its unnamed element type.
	st.Backends = slices.Grow(st.Backends, len(t.Backends))[:len(t.Backends)]
	for i, bt := range t.Backends {
		b := &st.Backends[i]
		b.Name, b.Device, b.Workers = bt.Name, device, workers
		b.Grants, b.Residues, b.Cells, b.WallSeconds = bt.Grants, bt.Residues, bt.Cells, bt.WallSeconds
	}
	st.Scheduler.Submitted, st.Scheduler.Joined, st.Scheduler.CacheHits = s.Submitted, s.Joined, s.CacheHits
	st.Cache.Hits, st.Cache.Misses, st.Cache.Entries = s.CacheHits, s.Misses, s.Entries
	st.Ladder.Escalated8, st.Ladder.Escalated16, st.Ladder.EscalatedCells = t.Kernel.Overflows8, t.Kernel.Overflows, t.Kernel.OverflowCells
	return st
}

// Close releases the cluster's background work: a coordinator's health
// prober stops. Every door stays usable. Close is idempotent.
func (c *Cluster) Close() {
	if c.topo != nil {
		c.topo.prober.Stop()
	}
}

// CloseNow tears down the cluster's scheduler: queued requests are
// dropped, in-flight ones cancelled at their next cancellation check, and
// every door fails with ErrClusterClosed from then on. It stops a
// coordinator's prober as Close does. CloseNow is idempotent.
func (c *Cluster) CloseNow() {
	c.sched.CloseNow()
	if c.topo != nil {
		c.topo.prober.Stop()
	}
}
