package remote

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NodeState is one node's position in the prober's health state machine.
// Healthy nodes answered their latest probe; a probe failure demotes the
// node to degraded (it stays routable — the client's retry policy covers
// transient faults — but loses replica-order preference); DeadAfter
// consecutive failures demote it to dead, at which point its shards fail
// over to the surviving replicas until a later probe succeeds and
// readopts it.
type NodeState int

const (
	NodeHealthy NodeState = iota
	NodeDegraded
	NodeDead
)

// String implements fmt.Stringer with the lowercase names the /healthz
// topology document serves.
func (s NodeState) String() string {
	switch s {
	case NodeHealthy:
		return "healthy"
	case NodeDegraded:
		return "degraded"
	case NodeDead:
		return "dead"
	}
	return fmt.Sprintf("NodeState(%d)", int(s))
}

// ProberOptions tunes a Prober. The zero value selects the defaults noted
// on each field.
type ProberOptions struct {
	// Interval is the background probe period (15s when 0; negative
	// disables the background loop entirely, leaving probes to explicit
	// ProbeAll calls — the deterministic mode the fault-injection tests
	// drive).
	Interval time.Duration
	// DeadAfter is the consecutive-failure count that demotes a node from
	// degraded to dead (3 when 0).
	DeadAfter int
}

// Per-node latency accounting: ewmaAlpha weights the newest sample in the
// exponentially weighted moving average, and latencyWindow is how many
// samples the quantile ring keeps.
const (
	ewmaAlpha     = 0.3
	latencyWindow = 64
)

func (o ProberOptions) withDefaults() ProberOptions {
	if o.Interval == 0 {
		o.Interval = 15 * time.Second
	} else if o.Interval < 0 {
		o.Interval = 0
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 3
	}
	return o
}

// NodeHealth is one node's health snapshot: its state-machine position,
// failure streak, latency statistics over successful probes, the shard
// keys it reported last, and the error that failed its latest probe (""
// while healthy).
type NodeHealth struct {
	URL                 string
	State               NodeState
	ConsecutiveFailures int
	Probes              int64
	LatencyEWMA         time.Duration
	LatencyP50          time.Duration
	LatencyP90          time.Duration
	LatencyP99          time.Duration
	Shards              []string
	LastError           string
}

// nodeStatus is the prober's mutable per-node record.
type nodeStatus struct {
	state    NodeState
	failures int
	probes   int64
	ewma     float64   // seconds
	window   []float64 // latency ring, seconds
	wnext    int       // next ring slot once the window is full
	shards   []string  // shard keys from the last successful probe
	lastErr  error
}

// Prober tracks the health of a fixed node roster by probing GET /shards:
// periodically from a background loop, and immediately when Kick reports
// a request failure against a node. It is the coordinator's one record of
// shard ownership: every shard request routes to Owners of its key, so a
// node that newly reports a key joins that shard's replicas, and a dead
// node's shards fail over to the survivors, at the probe that saw it and
// without a coordinator restart.
type Prober struct {
	client *Client
	nodes  []string // immutable roster, construction order
	opt    ProberOptions

	kick      chan string
	stopc     chan struct{}
	done      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
	looping   atomic.Bool

	mu sync.Mutex
	//sw:guardedBy(mu)
	status map[string]*nodeStatus
	//sw:guardedBy(mu)
	sweeps int64
}

// NewProber builds a prober over the node roster. The prober is inert
// until ProbeAll or Start is called.
func NewProber(client *Client, nodes []string, opt ProberOptions) *Prober {
	p := &Prober{
		client: client,
		nodes:  append([]string(nil), nodes...),
		opt:    opt.withDefaults(),
		kick:   make(chan string, 2*len(nodes)+4),
		stopc:  make(chan struct{}),
		done:   make(chan struct{}),
	}
	p.mu.Lock()
	p.status = make(map[string]*nodeStatus, len(nodes))
	for _, url := range p.nodes {
		// Unprobed counts as degraded: routable (construction probes run
		// before any traffic, but a safe default either way) yet never
		// preferred over a node that has proven itself.
		p.status[url] = &nodeStatus{state: NodeDegraded}
	}
	p.mu.Unlock()
	return p
}

// Start launches the background probe loop: a sweep every Interval, plus
// immediate single-node probes for every Kick. No-op when the interval is
// negative (disabled) or Start already ran.
//
//sw:ctxroot
func (p *Prober) Start() {
	p.startOnce.Do(func() {
		if p.opt.Interval <= 0 {
			return
		}
		p.looping.Store(true)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			defer close(p.done)
			defer cancel()
			ticker := time.NewTicker(p.opt.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-p.stopc:
					return
				case <-ticker.C:
					p.ProbeAll(ctx)
				case url := <-p.kick:
					p.probeOne(ctx, url)
				}
			}
		}()
	})
}

// Stop terminates the background loop and waits for it to exit. Safe to
// call multiple times and without a prior Start.
func (p *Prober) Stop() {
	p.stopOnce.Do(func() { close(p.stopc) })
	if p.looping.Load() {
		<-p.done
	}
}

// Kick requests an immediate re-probe of one node — the client's request
// path calls it on every retryable failure, so a dying node is detected
// at the next loop iteration instead of the next periodic sweep. The send
// never blocks; kicks beyond the buffer (or with the loop disabled) are
// dropped, which keeps deterministic tests free of background probes.
func (p *Prober) Kick(url string) {
	select {
	case p.kick <- url:
	default:
	}
}

// ProbeAll probes every node concurrently and waits for all results.
// ctx bounds the sweep; each probe is additionally bounded by the
// client's per-attempt timeout.
func (p *Prober) ProbeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, url := range p.nodes {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			p.probe(ctx, url)
		}(url)
	}
	wg.Wait()
	p.mu.Lock()
	p.sweeps++
	p.mu.Unlock()
}

// probeOne re-probes a single known node. Unknown URLs are ignored: the
// roster is fixed at construction.
func (p *Prober) probeOne(ctx context.Context, url string) {
	if slices.Contains(p.nodes, url) {
		p.probe(ctx, url)
	}
}

// probe runs one GET /shards probe and folds the outcome into the node's
// status record.
func (p *Prober) probe(ctx context.Context, url string) {
	start := time.Now()
	resp, err := p.client.Shards(ctx, url)
	lat := time.Since(start).Seconds()
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.status[url]
	st.probes++
	if err != nil {
		st.failures++
		st.lastErr = err
		if st.failures >= p.opt.DeadAfter {
			st.state = NodeDead
		} else {
			st.state = NodeDegraded
		}
		return
	}
	st.failures = 0
	st.lastErr = nil
	st.state = NodeHealthy
	keys := make([]string, len(resp.Shards))
	for i, sh := range resp.Shards {
		keys[i] = sh.Key
	}
	st.shards = keys
	if st.ewma == 0 {
		st.ewma = lat
	} else {
		st.ewma = ewmaAlpha*lat + (1-ewmaAlpha)*st.ewma
	}
	if len(st.window) < latencyWindow {
		st.window = append(st.window, lat)
	} else {
		st.window[st.wnext] = lat
		st.wnext = (st.wnext + 1) % latencyWindow
	}
}

// Owners lists the live node URLs reporting the shard key, healthy
// nodes first, then degraded, each group in roster order — so attempt 0
// of every request prefers a node that answered its latest probe. Dead
// nodes are excluded: their shards have failed over. The slice is the
// caller's.
func (p *Prober) Owners(key string) []string {
	var owners []string
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, state := range []NodeState{NodeHealthy, NodeDegraded} {
		for _, url := range p.nodes {
			if st := p.status[url]; st.state == state && slices.Contains(st.shards, key) {
				owners = append(owners, url)
			}
		}
	}
	return owners
}

// Health snapshots every node's health in roster order.
func (p *Prober) Health() []NodeHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]NodeHealth, len(p.nodes))
	for i, url := range p.nodes {
		st := p.status[url]
		h := NodeHealth{
			URL:                 url,
			State:               st.state,
			ConsecutiveFailures: st.failures,
			Probes:              st.probes,
			LatencyEWMA:         secondsToDuration(st.ewma),
			Shards:              append([]string(nil), st.shards...),
		}
		if st.lastErr != nil {
			h.LastError = st.lastErr.Error()
		}
		if n := len(st.window); n > 0 {
			sorted := append([]float64(nil), st.window...)
			sort.Float64s(sorted)
			h.LatencyP50 = secondsToDuration(quantile(sorted, 0.50))
			h.LatencyP90 = secondsToDuration(quantile(sorted, 0.90))
			h.LatencyP99 = secondsToDuration(quantile(sorted, 0.99))
		}
		out[i] = h
	}
	return out
}

// ProbeErrors lists, in roster order, the last probe failure of every
// node whose latest probe failed, each as "url: error" — the exact shape
// the coordinator's construction-time probeSuffix joins.
func (p *Prober) ProbeErrors() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var errs []error
	for _, url := range p.nodes {
		if st := p.status[url]; st.lastErr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", url, st.lastErr))
		}
	}
	return errs
}

// Sweeps counts completed ProbeAll sweeps.
func (p *Prober) Sweeps() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sweeps
}

// quantile reads the nearest-rank q-quantile from an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
