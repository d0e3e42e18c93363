package heterosw

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"heterosw/internal/core"
	"heterosw/internal/remote"
	"heterosw/internal/seqdb"
)

// DistributedOptions configures a coordinator over remote shard nodes.
type DistributedOptions struct {
	// Options is validated as a local cluster's is, fingerprints the
	// coordinator's cache keys and governs the coordinator's own
	// tracebacks. The remote nodes score their shards under their OWN
	// configured options — the coordinator ships queries, not search
	// parameters — so operators must configure nodes and coordinator
	// identically: every answer names the matrix and gap penalties it was
	// scored under, and the coordinator refuses one unlike its own.
	Options

	// MaxInFlight and CacheSize tune the coordinator's scheduler
	// and result cache exactly as the same-named ClusterOptions fields do.
	MaxInFlight int
	CacheSize   int

	// Timeout bounds each node request attempt; Retries and Backoff shape
	// the retry policy over retryable failures (remote.Retryable);
	// HedgeDelay launches a duplicate request to the next replica of a
	// slow shard. See remote.Options for defaults.
	Timeout    time.Duration
	Retries    int
	Backoff    time.Duration
	HedgeDelay time.Duration

	// ProbeInterval is the background health-probe period (15s when 0;
	// negative disables the background loop, leaving probes to explicit
	// ProbeNodes calls — the mode deterministic tests use). Each sweep
	// re-probes every node and updates its health state machine and its
	// reported shard keys, which every request routes by.
	ProbeInterval time.Duration
	// ProbeDeadAfter is the consecutive probe-failure count that marks a
	// node dead and fails its shards over to the surviving replicas (3
	// when 0). A later successful probe readopts the node.
	ProbeDeadAfter int
}

// liveTopology is a coordinator's mutable topology state: the manifest
// generation currently serving, its reload counters, and the prober whose
// latest ownership reports route every shard request. The engine itself
// (the dispatcher built over the shard cut) lives in Cluster.eng and is
// swapped atomically on reload.
type liveTopology struct {
	prober       *remote.Prober
	manifestPath string
	db           *Database
	scoring      string // the coordinator's ScoringID, computed once; every answer carries it

	// reload serialises ReloadManifest from its read to its publish, so
	// the last reload to read the file is the last to publish.
	reload sync.Mutex

	mu sync.Mutex
	//sw:guardedBy(mu)
	man *remote.Manifest
	//sw:guardedBy(mu)
	generation int
	//sw:guardedBy(mu)
	reloads int
	//sw:guardedBy(mu)
	reloadFailures int
}

// install publishes a freshly validated topology generation.
func (t *liveTopology) install(man *remote.Manifest) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.man = man
	t.generation++
}

// noteReload records a reload outcome.
func (t *liveTopology) noteReload(ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok {
		t.reloads++
	} else {
		t.reloadFailures++
	}
}

// NewDistributedCluster builds a coordinator: a Cluster whose backends
// are remote shard nodes instead of the local host. The manifest
// (written by swindex split) names the shard cut of the parent database;
// nodes are probed for which shard keys they serve, and each shard's
// current owners are the replicas its requests route (and hedge) across.
//
// db must be the parent .swdb index the manifest was cut from — the
// checksum keys must agree — so the coordinator can reconstruct each
// shard's exact sequence membership locally (seqdb.Select over the
// manifest's parent-index lists). Each node answers a request's K with its
// shard's K best hits, every tie with the K-th kept, and the histogram of
// every lower score (remote.ShardSearchResponse). The coordinator maps the
// hits into parent order and selects the K best over their union, by score
// and then parent index, and fits the Gumbel significance model over the
// summed histograms, which count every subject once; so every report is
// byte-identical to a single-node search of the unsplit database under the
// same options — a guarantee that holds through node deaths, failovers and
// manifest reloads as long as at least one live replica serves every
// shard (a replica that answers wrongly counts as failed, and its node is
// tried after the others until one of its answers passes). A translated
// request sends its frames in one request per shard; an every-hit request
// asks each node for every subject's score (K = 0).
//
// The topology stays live after construction: a background prober
// (ProbeInterval) re-probes the node roster, tracks each node through a
// healthy/degraded/dead state machine with latency accounting, fails a
// dead node's shards over to its surviving replicas and readopts the
// node when it answers again — all without restarting the coordinator.
// ReloadManifest (wired to SIGHUP and POST /admin/reload by swserve)
// re-reads the manifest for a re-cut shard layout; Topology snapshots
// the whole state for /healthz.
//
// Every door works unchanged — Do, DoBatch and the HTTP front end
// schedule, dedup and cache exactly as on a local cluster — except that a
// request-scoped Request.Matrix fails with ErrBadMatrix: nodes score under
// their own options. The coordinator traces back aligned reports' hits
// itself, over db, under its own options, and checks every traceback score
// against the score the nodes sent; an aligned query costs one round trip
// per shard.
//
// ctx bounds the construction-time node probes (which run concurrently):
// cancelling it aborts the topology discovery (a caller-side startup
// deadline), and it is not retained after NewDistributedCluster returns.
func NewDistributedCluster(ctx context.Context, db *Database, manifestPath string, nodes []string, opt DistributedOptions) (*Cluster, error) {
	if db == nil {
		return nil, fmt.Errorf("heterosw: nil database")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("heterosw: no nodes")
	}
	man, err := remote.ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	if err := validateManifestFor(db, man); err != nil {
		return nil, err
	}

	search, err := opt.Options.toCore()
	if err != nil {
		return nil, err
	}
	topo := &liveTopology{manifestPath: manifestPath, db: db, scoring: search.ScoringID(db.db.Alphabet())}
	topo.prober = remote.NewProber(nodes, remote.Options{
		Timeout:    opt.Timeout,
		Retries:    opt.Retries,
		Backoff:    opt.Backoff,
		HedgeDelay: opt.HedgeDelay,
	}, remote.ProberOptions{
		Interval:  opt.ProbeInterval,
		DeadAfter: opt.ProbeDeadAfter,
	})

	// Probe every node (concurrently, under the caller's ctx) for the
	// shard keys it serves. Individual probe failures are tolerated — a
	// node may be restarting, and replicas exist exactly for this — but a
	// shard nobody owns is fatal: the merged result would silently miss
	// its sequences.
	topo.prober.ProbeAll(ctx)
	eng, err := topo.buildShardEngine(man)
	if err != nil {
		return nil, err
	}
	topo.install(man)

	c := &Cluster{
		db:   db,
		topo: topo,
		dopt: core.DispatchOptions{Search: search},
	}
	c.eng.Store(eng)
	c.startScheduler(opt.MaxInFlight, opt.CacheSize)
	topo.prober.Start()
	return c, nil
}

// validateManifestFor checks a manifest against the coordinator's parent
// database: the durable checksum identity and the alphabet must agree.
// Construction and every hot-reload run exactly this gate.
func validateManifestFor(db *Database, man *remote.Manifest) error {
	key := db.Key()
	if key == "" {
		return fmt.Errorf("heterosw: the coordinator database needs a durable key (open the parent .swdb index, not FASTA)")
	}
	if key != man.Parent {
		return fmt.Errorf("heterosw: database key %s does not match the manifest parent %s", key, man.Parent)
	}
	if a := db.Alphabet(); a != man.Alphabet {
		return fmt.Errorf("heterosw: database alphabet %s does not match the manifest alphabet %s", a, man.Alphabet)
	}
	return nil
}

// buildShardEngine assembles one topology generation over a validated
// manifest: one remote backend per shard, routing by the prober's
// ownership reports, and the sharded dispatcher. A shard with no live
// owner fails the build — the caller keeps serving the previous
// generation (hot-reload) or refuses to start (construction).
func (t *liveTopology) buildShardEngine(man *remote.Manifest) (*core.Dispatcher, error) {
	backends := make([]core.Backend, len(man.Shards))
	shardDBs := make([]*seqdb.Database, len(man.Shards))
	shardIdx := make([][]int, len(man.Shards))
	for i, sh := range man.Shards {
		if len(t.prober.Owners(sh.Key)) == 0 {
			return nil, fmt.Errorf("heterosw: no node serves shard %d (%s)%s", i, sh.Key, probeSuffix(t.prober.ProbeErrors()))
		}
		sdb, err := t.db.db.Select(sh.ParentIndex, sh.Key)
		if err != nil {
			return nil, fmt.Errorf("heterosw: shard %d (%s): %w", i, sh.Key, err)
		}
		if sdb.Residues() != sh.Residues {
			return nil, fmt.Errorf("heterosw: shard %d (%s) selects %d residues, manifest declares %d",
				i, sh.Key, sdb.Residues(), sh.Residues)
		}
		backends[i] = remote.NewBackend(fmt.Sprintf("remote#%d", i), t.prober, t.scoring)
		shardDBs[i] = sdb
		shardIdx[i] = sh.ParentIndex
	}
	return core.NewDispatcherShards(t.db.db, backends, shardDBs, shardIdx)
}

// probeSuffix folds node probe failures into a shard-ownership error, so
// "no node serves shard X" explains itself when the real problem is that
// the nodes were unreachable.
func probeSuffix(probeErrs []error) string {
	if len(probeErrs) == 0 {
		return ""
	}
	return fmt.Sprintf("; %d node probe(s) failed: %v", len(probeErrs), errors.Join(probeErrs...))
}

// ProbeNodes runs one synchronous health-probe sweep over the node
// roster: every node is probed concurrently, the per-node state machines
// advance, and the next shard request routes by the reports it gathered.
// The background prober does exactly this every ProbeInterval; explicit
// calls serve deterministic tests (which disable the background loop) and
// the POST /admin/probe endpoint. Fails only on a non-distributed
// cluster — individual node failures are what the sweep exists to record.
func (c *Cluster) ProbeNodes(ctx context.Context) error {
	if c.topo == nil {
		return fmt.Errorf("heterosw: ProbeNodes needs a distributed coordinator")
	}
	c.topo.prober.ProbeAll(ctx)
	return nil
}

// ReloadManifest re-reads the coordinator's manifest from the path given
// at construction and atomically swaps the serving topology onto the new
// shard cut — the hot-reload behind swserve's SIGHUP and POST
// /admin/reload. The discipline mirrors the .swdb writer's temp+rename:
// the incoming manifest is read, validated against the parent database,
// and built into a complete engine (nodes re-probed, every shard needing
// at least one live owner) BEFORE anything is published; any failure
// leaves the old topology serving untouched. In-flight queries hold the
// engine snapshot they started with, so a reload never tears a response;
// their shard requests route to the current owners of each shard's key.
//
// Concurrent reloads (a SIGHUP racing POST /admin/reload) run one at a
// time, so a slow reload of an older manifest cannot publish over a later
// one.
//
// The swap resets the per-backend Stats accounting (the new generation
// has fresh backends); the result cache is kept — the conformance
// guarantee makes results identical across cuts of the same parent.
func (c *Cluster) ReloadManifest(ctx context.Context) error {
	t := c.topo
	if t == nil {
		return fmt.Errorf("heterosw: ReloadManifest needs a distributed coordinator")
	}
	t.reload.Lock()
	defer t.reload.Unlock()
	man, err := remote.ReadManifest(t.manifestPath)
	if err != nil {
		t.noteReload(false)
		return fmt.Errorf("heterosw: manifest reload: %w", err)
	}
	if err := validateManifestFor(t.db, man); err != nil {
		t.noteReload(false)
		return err
	}
	// Re-probe before building so nodes newly serving the incoming cut's
	// shards are discovered in this very call, not a sweep later.
	t.prober.ProbeAll(ctx)
	eng, err := t.buildShardEngine(man)
	if err != nil {
		t.noteReload(false)
		return err
	}
	t.install(man)
	c.eng.Store(eng)
	t.noteReload(true)
	return nil
}

// NodeHealthInfo is one node's entry in a Topology snapshot.
type NodeHealthInfo struct {
	// URL is the node's base URL; State its health-state-machine position
	// ("healthy", "degraded" or "dead").
	URL   string `json:"url"`
	State string `json:"state"`
	// ConsecutiveFailures counts the node's current probe-failure streak
	// (0 while healthy); Probes every probe ever sent to it.
	ConsecutiveFailures int   `json:"consecutive_failures"`
	Probes              int64 `json:"probes"`
	// The latency figures cover successful probes only: an exponentially
	// weighted moving average plus ring-buffer quantiles, in seconds.
	LatencyEWMASeconds float64 `json:"latency_ewma_seconds"`
	LatencyP50Seconds  float64 `json:"latency_p50_seconds"`
	LatencyP90Seconds  float64 `json:"latency_p90_seconds"`
	LatencyP99Seconds  float64 `json:"latency_p99_seconds"`
	// Shards lists the shard keys the node reported on its last
	// successful probe (a dead node keeps its last report, for operators
	// deciding what its loss cost).
	Shards []string `json:"shards"`
	// LastError is the failure that failed the latest probe ("" while
	// healthy).
	LastError string `json:"last_error,omitempty"`
}

// ShardRouteInfo is one shard's routing entry in a Topology snapshot.
type ShardRouteInfo struct {
	// Key is the shard's .swdb checksum key; Replicas the node URLs its
	// requests currently route across, in preference order (healthy
	// first). An empty Replicas means the shard is uncovered: requests
	// touching it fail with the retryable remote.ErrNoReplicas until a
	// node serving it recovers.
	Key      string   `json:"key"`
	Replicas []string `json:"replicas"`
}

// TopologyInfo is a distributed coordinator's live-topology snapshot: the
// /healthz "topology" document a load balancer rotates coordinators on.
type TopologyInfo struct {
	// Generation counts installed topologies (1 after construction,
	// incremented per successful ReloadManifest); Reloads and
	// ReloadFailures count reload outcomes.
	Generation     int `json:"generation"`
	Reloads        int `json:"reloads"`
	ReloadFailures int `json:"reload_failures"`
	// Nodes is the probed roster in construction order; Shards the
	// current manifest's shards in manifest order.
	Nodes  []NodeHealthInfo `json:"nodes"`
	Shards []ShardRouteInfo `json:"shards"`
}

// Uncovered reports whether any shard currently has no live replica.
func (t *TopologyInfo) Uncovered() bool {
	for _, sh := range t.Shards {
		if len(sh.Replicas) == 0 {
			return true
		}
	}
	return false
}

// Topology snapshots a distributed coordinator's live topology: per-node
// health (state machine, failure streaks, latency quantiles, reported
// shards) and per-shard replica routing. Returns nil for a local cluster.
func (c *Cluster) Topology() *TopologyInfo {
	t := c.topo
	if t == nil {
		return nil
	}
	health := t.prober.Health()
	out := &TopologyInfo{Nodes: make([]NodeHealthInfo, len(health))}
	for i, h := range health {
		out.Nodes[i] = NodeHealthInfo{
			URL:                 h.URL,
			State:               h.State.String(),
			ConsecutiveFailures: h.ConsecutiveFailures,
			Probes:              h.Probes,
			LatencyEWMASeconds:  h.LatencyEWMA.Seconds(),
			LatencyP50Seconds:   h.LatencyP50.Seconds(),
			LatencyP90Seconds:   h.LatencyP90.Seconds(),
			LatencyP99Seconds:   h.LatencyP99.Seconds(),
			Shards:              h.Shards,
			LastError:           h.LastError,
		}
	}
	t.mu.Lock()
	out.Generation = t.generation
	out.Reloads = t.reloads
	out.ReloadFailures = t.reloadFailures
	man := t.man
	t.mu.Unlock()
	out.Shards = make([]ShardRouteInfo, len(man.Shards))
	for i, sh := range man.Shards {
		out.Shards[i] = ShardRouteInfo{Key: sh.Key, Replicas: t.prober.Owners(sh.Key)}
	}
	return out
}

// SplitIndexFile cuts a parent .swdb index into n shard .swdb files under
// dir and writes the manifest describing the cut (swindex split wraps
// exactly this). prefix names the shard files (prefix-00.swdb, ...); ""
// derives it from the parent filename. Returns the manifest path.
func SplitIndexFile(parentPath string, n int, dir, prefix string) (string, error) {
	if prefix == "" {
		base := filepath.Base(parentPath)
		prefix = base[:len(base)-len(filepath.Ext(base))]
	}
	man, err := remote.SplitIndex(parentPath, n, dir, prefix)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, prefix+".manifest.json")
	if err := remote.WriteManifest(path, man); err != nil {
		return "", err
	}
	return path, nil
}
