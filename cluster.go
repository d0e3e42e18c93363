package heterosw

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"heterosw/internal/core"
	"heterosw/internal/device"
	"heterosw/internal/qsched"
	"heterosw/internal/stats"
	"heterosw/internal/vec"
)

// ErrClusterClosed is returned by the scheduled doors (Do, DoBatch,
// SearchScheduled, the HTTP front end and a shard node's endpoints) after
// Cluster.CloseNow. The direct Search remains usable.
var ErrClusterClosed = errors.New("heterosw: cluster closed")

// ErrNoSignificance is returned when ReportOptions.EValues is requested
// over a database too small or too degenerate to fit the Gumbel null model
// (the fit needs a few dozen database sequences).
var ErrNoSignificance = errors.New("heterosw: significance fit unavailable")

// MaxAlignHits caps how many hits one search call may decorate with
// tracebacks (ReportOptions.Alignments): every aligned hit costs an
// O(query x subject) re-alignment, so the aligned report is
// bounded far tighter than the score-only one. The cap is enforced at the
// library boundary — the HTTP front end merely mirrors it — so an
// over-eager ReportOptions.TopK fails fast with ErrTooManyAlignments
// instead of re-aligning an arbitrary slice of the database.
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
// scheduler, behind every scheduled door (Do, DoBatch, SearchScheduled,
// the swserve HTTP front end).
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
	// Each cached result holds a database-length score list and the K hits
	// its request asked for, so the zero-value default is derived from the
	// database size against a ~512 MB budget (at most 512 entries, at
	// least 8 — 247 entries on the full 541k-sequence Swiss-Prot).
	// Negative disables caching.
	CacheSize int
}

// Cache sizing when ClusterOptions.CacheSize is zero: a memory budget
// divided by the estimated per-entry cost, clamped to [minCacheSize,
// maxCacheSize]. What grows with the database in an entry is Result.Scores,
// one int32 (cacheBytesPerSeq) per sequence; the hit list is as long as the
// request's K, and cacheEntryBytes covers ten hits with their IDs,
// tracebacks and E-values several times over.
const (
	cacheBudgetBytes = 512 << 20
	cacheBytesPerSeq = 4
	cacheEntryBytes  = 4096
	minCacheSize     = 8
	maxCacheSize     = 512
)

func defaultCacheSize(dbLen int) int {
	per := int64(dbLen)*cacheBytesPerSeq + cacheEntryBytes
	n := int(cacheBudgetBytes / per)
	if n > maxCacheSize {
		return maxCacheSize
	}
	if n < minCacheSize {
		return minCacheSize
	}
	return n
}

// ClusterResult reports a cluster search.
type ClusterResult struct {
	Result
	// Significance is the Gumbel null model fitted over the full score
	// distribution when the search requested ReportOptions.EValues; nil
	// otherwise.
	Significance *Significance
}

// ReportOptions selects the optional reporting phases of one search call.
// The zero value is the plain score pass of the paper's step 4: a
// descending score list and nothing else. Report options are part of the
// scheduler cache key, so an aligned result and a score-only result of the
// same query never alias in the cluster's LRU cache.
type ReportOptions struct {
	// Alignments enables reporting phase two: after the vectorised score
	// pass selects the top-K hits, the query is re-aligned against just
	// those K database sequences — on the host's workers, or on the shard
	// nodes of a coordinator — and each hit gains coordinates, a CIGAR and
	// identity counts (Hit.Alignment). The traceback phase only ever aligns
	// K sequences, never the full database.
	Alignments bool
	// EValues fits a Gumbel null model over the full score distribution
	// (see Result.FitSignificance) and decorates every reported hit with
	// its bit score and E-value (Hit.Significance); the fitted model is
	// returned as ClusterResult.Significance. Fails with ErrNoSignificance
	// on databases with fewer than a few dozen sequences.
	EValues bool
	// TopK is this call's K, the length of its hit list; 0 reports every
	// hit. It travels with the query to the engine, which selects exactly
	// K hits — nothing downstream orders or holds more. With Alignments set
	// it is the number of sequences the traceback phase aligns. When a
	// reporting phase is requested and TopK is 0, the reported hit list is
	// bounded at defaultReportHits, so every returned hit is decorated and
	// an unbounded search never re-aligns the whole database.
	TopK int
	// EValueTrim is the top fraction of scores excluded from the
	// significance fit as suspected homologs (0 selects the 1% default).
	EValueTrim float64
}

// validate rejects unusable report options.
func (rep ReportOptions) validate() error {
	if rep.TopK < 0 {
		return badRequest("negative report TopK %d", rep.TopK)
	}
	if !(rep.EValueTrim >= 0 && rep.EValueTrim < 0.5) { // rejects NaN too
		return badRequest("report EValueTrim %v outside [0, 0.5)", rep.EValueTrim)
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
	return fmt.Sprintf("R:a=%t,e=%t,k=%d,t=%g|", rep.Alignments, rep.EValues, rep.TopK, rep.EValueTrim)
}

// defaultReportHits bounds the reporting phases when the call sets no
// top-K: decorating an unbounded hit list would re-align the entire
// database, defeating the two-phase design.
const defaultReportHits = 10

// checkReport rejects report options this cluster can never satisfy —
// before the query reaches the scheduler, so an EValues request over a
// too-small database fails at its door without computing its scores. (A
// degenerate zero-variance score distribution can still fail inside the
// fit — only computing the scores reveals it — and fails that query
// alone.)
func (c *Cluster) checkReport(rep ReportOptions) error {
	if rep.EValues {
		if err := stats.FitViable(c.db.Len(), rep.EValueTrim); err != nil {
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

// engineState is one immutable topology generation: the dispatcher and
// the label its backends carry in Totals (DeviceHost or DeviceRemote),
// always read together. See Cluster.eng.
type engineState struct {
	disp *core.Dispatcher
	kind DeviceKind
}

// engine snapshots the cluster's current engine. Callers must hold the
// returned snapshot for the whole operation instead of re-loading.
func (c *Cluster) engine() *engineState { return c.eng.Load() }

// BackendTotals is one backend's cumulative accounting across every search
// the cluster has completed, whichever door it arrived on; the
// swserve /healthz endpoint lists one per backend.
type BackendTotals struct {
	// Name identifies the backend; Device is DeviceHost for a local
	// cluster's one backend, DeviceRemote for a coordinator's shard nodes.
	Name   string     `json:"name"`
	Device DeviceKind `json:"device"`
	// Workers is the host backend's goroutine count per search (0 for a
	// remote node, whose parallelism is its own).
	Workers int `json:"workers"`
	// Grants counts the searches the backend has run (one per query);
	// Residues the database residues and Cells the cell updates they
	// covered; WallSeconds their accumulated wall time, so
	// Cells/WallSeconds is the backend's realised rate.
	Grants      int64   `json:"grants"`
	Residues    int64   `json:"residues"`
	Cells       int64   `json:"cells"`
	WallSeconds float64 `json:"wall_seconds"`
	// Tracebacks counts the aligned-hit tracebacks the backend has run in
	// reporting phase two (ReportOptions.Alignments).
	Tracebacks int64 `json:"tracebacks"`
}

// Cluster is a search service over a Database. Every search is a Request
// through one of its doors — Do and DoBatch on the cluster's one
// scheduler, Search straight to the executor — and every door runs the
// same validation and the same executor. A
// local Cluster (NewCluster) runs every search on the host, one engine pass
// over the whole database, and prices the configured device roster on the
// side (Plan); a coordinator (NewDistributedCluster) fans searches out to
// shard nodes. A Cluster is safe for concurrent use; lane packings are
// built once so every query reuses them, and the scheduled doors share one
// LRU result cache so repeated requests are free.
type Cluster struct {
	db   *Database
	dopt core.DispatchOptions
	// roster is the modelled roster Plan prices (nil on a coordinator);
	// nothing executes on it.
	roster []*device.Model

	// eng is the cluster's current engine: the dispatcher plus the roster
	// labels its reports carry, bundled so a topology swap replaces both
	// atomically. Every search path snapshots it exactly once and threads
	// the snapshot through scoring, wrapping and decoration — a manifest
	// hot-reload racing an in-flight query can therefore never tear a
	// response or mismatch a result against the wrong roster. Local
	// clusters store it once at construction and never again.
	eng atomic.Pointer[engineState]

	// topo is the live-topology controller of a distributed coordinator
	// (health prober, replica sets, manifest hot-reload); nil for local
	// clusters.
	topo *liveTopology

	// sched is the one query scheduler behind every scheduled door, built
	// with the cluster; cache is its result cache and keyBase the constant
	// prefix of its keys (see startScheduler).
	sched   *qsched.Scheduler[job, *ClusterResult]
	cache   *qsched.Cache[*ClusterResult]
	keyBase string
	// closed is set by CloseNow: a shard node's tracebacks, which bypass
	// the scheduler, refuse work from then on too.
	closed atomic.Bool
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
	search, err := opt.Options.toCore(db.db.Alphabet())
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
	c.eng.Store(&engineState{disp: disp, kind: DeviceHost})
	c.startScheduler(opt.MaxInFlight, opt.CacheSize)
	return c, nil
}

// startScheduler builds the cluster's one query scheduler and its result
// cache; both constructors call it once the rest of the cluster is set.
// cacheSize is ClusterOptions.CacheSize, 0 selecting the default sized
// from the database. The key prefix fingerprints every option that can
// change a result; within one cluster the options are fixed, so it is the
// constant prefix of the scheduler cache keys (see cacheKey).
func (c *Cluster) startScheduler(maxInFlight, cacheSize int) {
	if cacheSize == 0 {
		cacheSize = defaultCacheSize(c.db.Len())
	}
	c.cache = qsched.NewCache[*ClusterResult](cacheSize)
	c.keyBase = fmt.Sprintf("%+v|", c.dopt.Search)
	c.sched = qsched.New(c.execute, c.cacheKey, c.cache, maxInFlight)
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
	p, err := core.PlanLengths(c.db.db.OrderLengths(), queryLen, c.roster, c.dopt)
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

func wrapCluster(r *core.ClusterResult) *ClusterResult {
	return &ClusterResult{Result: *wrapResult(r)}
}

// Totals reports the number of completed query searches and cumulative
// per-backend accounting (searches, residues, cells, wall seconds) across
// every entry point and concurrent caller: one host backend on a local
// cluster, one per shard on a coordinator. The swserve /healthz endpoint
// serves this snapshot.
func (c *Cluster) Totals() (queries int64, per []BackendTotals) {
	e := c.engine()
	q, raw := e.disp.Totals()
	workers := 0
	if e.kind == DeviceHost {
		workers = runtime.GOMAXPROCS(0)
	}
	per = make([]BackendTotals, len(raw))
	for i, bt := range raw {
		per[i] = BackendTotals{
			Name:        bt.Name,
			Device:      e.kind,
			Workers:     workers,
			Grants:      bt.Grants,
			Residues:    bt.Residues,
			Cells:       bt.Cells,
			WallSeconds: bt.WallSeconds,
			Tracebacks:  bt.Tracebacks,
		}
	}
	return q, per
}

// LadderStats is the cumulative precision-ladder accounting of every search
// the cluster has completed (cache hits and joined queries compute
// nothing and count nothing).
type LadderStats struct {
	// Escalated8 counts lanes whose byte pass saturated and went to the
	// 16-bit lane pass; Escalated16 those that saturated 16 bits and were
	// recomputed at 32.
	Escalated8  int64 `json:"escalated_8to16"`
	Escalated16 int64 `json:"escalated_16to32"`
	// EscalatedCells counts the cell updates those recomputations cost.
	EscalatedCells int64 `json:"escalated_cells"`
}

// LadderStats reports the cumulative escalation counts. Escalated8 per
// searched subject is the share of the traffic's subjects that are
// homologs of their queries; the swserve /healthz endpoint serves it.
func (c *Cluster) LadderStats() LadderStats {
	st := c.engine().disp.KernelStats()
	return LadderStats{Escalated8: st.Overflows8, Escalated16: st.Overflows, EscalatedCells: st.OverflowCells}
}

// CacheStats is a snapshot of the cluster result cache.
type CacheStats struct {
	// Hits and Misses count lookups; Entries is the current entry count.
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// CacheStats reports the cluster result cache's hit/miss counters and
// current entry count (all zero when caching is disabled).
func (c *Cluster) CacheStats() CacheStats {
	s := c.cache.Stats()
	return CacheStats{Hits: s.Hits, Misses: s.Misses, Entries: s.Entries}
}

// SchedulerStats is a snapshot of the cluster scheduler's activity.
type SchedulerStats struct {
	// Submitted counts scheduled submissions.
	Submitted int64 `json:"submitted"`
	// Joined counts submissions that attached to an identical in-flight
	// query; CacheHits those answered straight from the cache.
	Joined    int64 `json:"joined"`
	CacheHits int64 `json:"cache_hits"`
}

// SchedulerStats reports the activity of the cluster's scheduler, which
// every scheduled door shares.
func (c *Cluster) SchedulerStats() SchedulerStats {
	st := c.sched.Stats()
	return SchedulerStats{Submitted: st.Submitted, Joined: st.Joined, CacheHits: st.CacheHits}
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
// every scheduled door fails with ErrClusterClosed from then on. It stops
// a coordinator's prober as Close does. The direct Search remains usable.
// CloseNow is idempotent.
func (c *Cluster) CloseNow() {
	c.closed.Store(true)
	c.sched.CloseNow()
	if c.topo != nil {
		c.topo.prober.Stop()
	}
}
