package heterosw

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"heterosw/internal/core"
	"heterosw/internal/remote"
	"heterosw/internal/seqdb"
)

// DeviceHost and DeviceRemote label the backends of Cluster.Totals: the
// host a local cluster runs on, and a remote shard node of a distributed
// cluster. Neither is a modelled device: they are not constructible through
// ClusterOptions.Devices.
const (
	DeviceHost   = DeviceKind("host")
	DeviceRemote = DeviceKind("remote")
)

// DistributedOptions configures a coordinator over remote shard nodes.
type DistributedOptions struct {
	// Options is validated as a local cluster's is and fingerprints the
	// coordinator's cache keys. The remote nodes execute shards and
	// tracebacks under their OWN configured options — the coordinator
	// ships queries, not search parameters — so operators must configure
	// nodes and coordinator identically for the merged result to be
	// meaningful.
	Options

	// MaxInFlight and CacheSize tune the coordinator's scheduler
	// and result cache exactly as the same-named ClusterOptions fields do.
	MaxInFlight int
	CacheSize   int

	// Timeout bounds each node request attempt; Retries and Backoff shape
	// the retry policy over retryable (503/transport) failures; HedgeDelay
	// launches a duplicate request to the next replica of a slow shard.
	// See remote.Options for defaults.
	Timeout    time.Duration
	Retries    int
	Backoff    time.Duration
	HedgeDelay time.Duration
	// HTTPClient optionally supplies the underlying HTTP client.
	HTTPClient *http.Client

	// ProbeInterval is the background health-probe period (15s when 0;
	// negative disables the background loop, leaving probes to explicit
	// ProbeNodes calls — the mode deterministic tests use). Each sweep
	// re-probes every node, updates the per-node health state machine and
	// recomputes every shard's replica set from the latest ownership
	// reports.
	ProbeInterval time.Duration
	// ProbeDeadAfter is the consecutive probe-failure count that marks a
	// node dead and fails its shards over to the surviving replicas (3
	// when 0). A later successful probe readopts the node.
	ProbeDeadAfter int
}

// liveTopology is a coordinator's mutable topology state: the manifest
// generation currently serving, one live replica set per shard, and the
// prober that keeps them converged with reality. The engine itself (the
// dispatcher built over the shard cut) lives in Cluster.eng and is
// swapped atomically on reload; this struct owns everything that changes
// between and within generations.
type liveTopology struct {
	client       *remote.Client
	prober       *remote.Prober
	nodes        []string
	manifestPath string
	db           *Database

	mu sync.Mutex
	//sw:guardedBy(mu)
	man *remote.Manifest
	// keys mirrors man.Shards[i].Key; replicas[i] is shard i's live
	// replica set, rewritten by refresh after every probe sweep.
	//sw:guardedBy(mu)
	keys []string
	//sw:guardedBy(mu)
	replicas []*remote.ReplicaSet
	//sw:guardedBy(mu)
	generation int
	//sw:guardedBy(mu)
	reloads int
	//sw:guardedBy(mu)
	reloadFailures int
}

// install publishes a freshly validated topology generation.
func (t *liveTopology) install(man *remote.Manifest, keys []string, sets []*remote.ReplicaSet) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.man = man
	t.keys = keys
	t.replicas = sets
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

// refresh is the prober's onChange hook: recompute every shard's replica
// set from the latest ownership reports. A node that newly reports a
// shard key joins that shard's replicas; a dead node leaves every set it
// was in — failover and readoption are both exactly this rewrite. The
// sets are updated in place, so in-flight requests (which snapshotted
// their URL list already) are untouched.
func (t *liveTopology) refresh() {
	t.mu.Lock()
	keys := t.keys
	sets := t.replicas
	t.mu.Unlock()
	if len(keys) == 0 {
		return // construction probe: nothing published yet
	}
	owners := t.prober.Owners(keys)
	for i, key := range keys {
		sets[i].Set(owners[key])
	}
}

// kick forwards a request failure to the prober for an immediate
// re-probe of the failing node.
func (t *liveTopology) kick(url string, err error) {
	t.prober.Kick(url)
}

// NewDistributedCluster builds a coordinator: a Cluster whose backends
// are remote shard nodes instead of the local host. The manifest
// (written by swindex split) names the shard cut of the parent database;
// nodes are probed for which shard keys they serve, and each shard's
// owners become the replica set its requests route (and hedge) across.
//
// db must be the parent .swdb index the manifest was cut from — the
// checksum keys must agree — so the coordinator can reconstruct each
// shard's exact sequence membership locally (seqdb.Select over the
// manifest's parent-index lists). Scores merge into parent order, the
// hit list and the Gumbel significance fit run over the union score
// distribution, and every report is byte-identical to a single-node
// search of the unsplit database under the same options — a guarantee
// that holds through node deaths, failovers and manifest reloads as long
// as at least one live replica serves every shard.
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
// their own options. Aligned reports fan tracebacks out to the nodes owning
// each hit's shard.
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

	topo := &liveTopology{
		nodes:        append([]string(nil), nodes...),
		manifestPath: manifestPath,
		db:           db,
	}
	topo.client = remote.NewClient(remote.Options{
		HTTP:       opt.HTTPClient,
		Timeout:    opt.Timeout,
		Retries:    opt.Retries,
		Backoff:    opt.Backoff,
		HedgeDelay: opt.HedgeDelay,
		OnFailure:  topo.kick,
	})
	topo.prober = remote.NewProber(topo.client, nodes, remote.ProberOptions{
		Interval:  opt.ProbeInterval,
		DeadAfter: opt.ProbeDeadAfter,
	}, topo.refresh)

	// Probe every node (concurrently, under the caller's ctx) for the
	// shard keys it serves. Individual probe failures are tolerated — a
	// node may be restarting, and replicas exist exactly for this — but a
	// shard nobody owns is fatal: the merged result would silently miss
	// its sequences.
	topo.prober.ProbeAll(ctx)
	eng, keys, sets, err := buildShardEngine(db, man, topo.prober, topo.client)
	if err != nil {
		return nil, err
	}
	topo.install(man, keys, sets)

	search, err := opt.Options.toCore(db.db.Alphabet())
	if err != nil {
		return nil, err
	}
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
// manifest: per-shard replica sets from the prober's latest ownership
// reports, one remote backend per shard, and the sharded dispatcher.
// A shard with no live owner fails the build — the caller keeps serving
// the previous generation (hot-reload) or refuses to start (construction).
func buildShardEngine(db *Database, man *remote.Manifest, prober *remote.Prober, client *remote.Client) (*engineState, []string, []*remote.ReplicaSet, error) {
	keys := make([]string, len(man.Shards))
	for i, sh := range man.Shards {
		keys[i] = sh.Key
	}
	owners := prober.Owners(keys)
	backends := make([]core.ShardBackend, len(man.Shards))
	shardDBs := make([]*seqdb.Database, len(man.Shards))
	shardIdx := make([][]int, len(man.Shards))
	sets := make([]*remote.ReplicaSet, len(man.Shards))
	for i, sh := range man.Shards {
		urls := owners[sh.Key]
		if len(urls) == 0 {
			return nil, nil, nil, fmt.Errorf("heterosw: no node serves shard %d (%s)%s", i, sh.Key, probeSuffix(prober.ProbeErrors()))
		}
		sdb, err := db.db.Select(sh.ParentIndex, sh.Key)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("heterosw: shard %d (%s): %w", i, sh.Key, err)
		}
		if sdb.Residues() != sh.Residues {
			return nil, nil, nil, fmt.Errorf("heterosw: shard %d (%s) selects %d residues, manifest declares %d",
				i, sh.Key, sdb.Residues(), sh.Residues)
		}
		sets[i] = remote.NewReplicaSet(urls)
		backends[i] = remote.NewBackendSet(fmt.Sprintf("remote#%d", i), client, sets[i])
		shardDBs[i] = sdb
		shardIdx[i] = sh.ParentIndex
	}
	disp, err := core.NewDispatcherShards(db.db, backends, shardDBs, shardIdx)
	if err != nil {
		return nil, nil, nil, err
	}
	return &engineState{disp: disp, kind: DeviceRemote}, keys, sets, nil
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
// advance, and every shard's replica set is recomputed from the latest
// ownership reports. The background prober does exactly this every
// ProbeInterval; explicit calls serve deterministic tests (which disable
// the background loop) and the POST /admin/probe endpoint. Fails only on
// a non-distributed cluster — individual node failures are what the
// sweep exists to record.
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
// engine snapshot they started with, so a reload never tears a response.
//
// The swap resets the per-backend Totals accounting (the new generation
// has fresh backends); the result cache is kept — the conformance
// guarantee makes results identical across cuts of the same parent.
func (c *Cluster) ReloadManifest(ctx context.Context) error {
	t := c.topo
	if t == nil {
		return fmt.Errorf("heterosw: ReloadManifest needs a distributed coordinator")
	}
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
	eng, keys, sets, err := buildShardEngine(t.db, man, t.prober, t.client)
	if err != nil {
		t.noteReload(false)
		return err
	}
	t.install(man, keys, sets)
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
	keys := t.keys
	sets := t.replicas
	t.mu.Unlock()
	out.Shards = make([]ShardRouteInfo, len(keys))
	for i, key := range keys {
		out.Shards[i] = ShardRouteInfo{Key: key, Replicas: sets[i].URLs()}
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
