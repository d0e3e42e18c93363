package main

// One run of one workload: server lifetimes, each doing the same fixed
// work, repeated until the measured time is used up.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// runner holds what every lifetime of a run shares.
type runner struct {
	ps      *procSet
	swserve string
	logDir  string
	hc      *http.Client
	clients int
	seed    uint64
}

// lifetime is what one server lifetime measured.
type lifetime struct {
	setupS float64
	// wallS, cpuS and the health snapshots bracket the measured round.
	wallS, cpuS   float64
	before, after *health
	rssMB         float64
	// latencies holds one entry per verified query of the round; warm the
	// latencies of the sequential warm-up requests.
	latencies, warm []time.Duration
	attempted       int
	failures        []error
	verifiedCells   int64
}

// topology is the running servers of one lifetime; front answers the
// clients.
type topology struct {
	procs []*proc
	front *proc
}

func (r *runner) startTopology(ctx context.Context, in *inputs, tag string) (*topology, error) {
	t := &topology{}
	start := func(name string, args ...string) (*proc, error) {
		p, err := r.ps.start(r.swserve, tag+"-"+name, r.logDir, args...)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, p)
		return p, nil
	}
	if !in.w.coord {
		p, err := start("swserve", "-db", in.swdb)
		if err != nil {
			return t, err
		}
		t.front = p
		return t, p.waitHealthy(ctx, r.hc)
	}
	var urls []string
	for i, shard := range in.shards {
		p, err := start(fmt.Sprintf("node%d", i), "-shards", shard)
		if err != nil {
			return t, err
		}
		urls = append(urls, p.url)
	}
	// The coordinator probes its nodes as it starts, so they come up first.
	for _, p := range t.procs {
		if err := p.waitHealthy(ctx, r.hc); err != nil {
			return t, err
		}
	}
	p, err := start("coordinator", "-db", in.swdb, "-manifest", in.manifest, "-nodes", strings.Join(urls, ","))
	if err != nil {
		return t, err
	}
	t.front = p
	return t, p.waitHealthy(ctx, r.hc)
}

func (r *runner) stopTopology(t *topology) {
	// Front first: a coordinator drains before its nodes go away.
	for i := len(t.procs) - 1; i >= 0; i-- {
		r.ps.stop(t.procs[i])
	}
}

// sum adds f over the topology's processes.
func (t *topology) sum(f func(*proc) (float64, error)) (float64, error) {
	var total float64
	for _, p := range t.procs {
		v, err := f(p)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// live runs one server lifetime: set-up (exec to end of warm-up), one
// measured round, teardown, and only then verification.
func (r *runner) live(ctx context.Context, in *inputs, tag string) (*lifetime, error) {
	lt := &lifetime{}
	v := &verifier{db: in.db, shape: in.w.shape(), donorTop: !in.w.batch, seed: r.seed}

	begin := time.Now()
	topo, err := r.startTopology(ctx, in, tag)
	defer r.stopTopology(topo)
	if err != nil {
		return nil, err
	}
	base := topo.front.url

	// Warm-up: sequential, single client, search requests of the workload's
	// own shape. A hot set-up then posts the rest of the pool, after which
	// every query the round will ask is cached.
	nw := len(in.warm)
	setup := make([]reply, nw, len(in.setup))
	for i := range setup {
		setup[i] = post(ctx, r.hc, base, &in.setup[i])
		lt.warm = append(lt.warm, setup[i].latency)
	}
	pool, _ := closedLoop(ctx, r.hc, base, in.setup[nw:], r.clients)
	setup = append(setup, pool...)
	lt.setupS = time.Since(begin).Seconds()

	round := in.round
	if in.w.hot {
		round = make([]op, len(in.round))
		for i, o := range in.round {
			o.expect = setup[in.pick[i]].body
			if o.expect == nil {
				o.expect = []byte{} // the first answer failed; so does every re-ask
			}
			round[i] = o
		}
	}

	if lt.before, err = getHealth(ctx, r.hc, base); err != nil {
		return nil, err
	}
	cpu0, err := topo.sum((*proc).cpuSeconds)
	if err != nil {
		return nil, err
	}
	replies, wall := closedLoop(ctx, r.hc, base, round, r.clients)
	cpu1, err := topo.sum((*proc).cpuSeconds)
	if err != nil {
		return nil, err
	}
	if lt.after, err = getHealth(ctx, r.hc, base); err != nil {
		return nil, err
	}
	if lt.rssMB, err = topo.sum((*proc).rssPeakMB); err != nil {
		return nil, err
	}
	lt.wallS, lt.cpuS = wall.Seconds(), cpu1-cpu0
	r.stopTopology(topo)

	// Verification, with the servers gone. Set-up replies are checked but
	// are not operations of the round.
	for i, rep := range setup {
		var pin *pinned
		if i == 0 {
			pin = in.pin
		}
		err := rep.err
		if err == nil {
			err = v.checkSearch(in.setup[i].queries[0], rep.body, pin)
		}
		if err != nil {
			lt.failures = append(lt.failures, fmt.Errorf("set-up: %w", err))
		}
	}
	for i, rep := range replies {
		o := &round[i]
		errs := make([]error, len(o.queries))
		switch {
		case rep.err != nil:
			for k, q := range o.queries {
				errs[k] = fmt.Errorf("%s: %w", q.ID, rep.err)
			}
		case o.expect != nil: // compared in place by post
		case in.w.batch:
			errs = v.checkBatch(o.queries, rep.body)
		default:
			errs[0] = v.checkSearch(o.queries[0], rep.body, nil)
		}
		for k, q := range o.queries {
			lt.attempted++
			if errs[k] != nil {
				lt.failures = append(lt.failures, errs[k])
				continue
			}
			lt.latencies = append(lt.latencies, rep.latency)
			lt.verifiedCells += int64(len(q.Res)) * in.db.residues
		}
	}
	return lt, nil
}

// measured is a run's metrics by name, with its operation counts.
type measured struct {
	metrics           map[string]float64
	attempted, failed int
	failures          []error
	// vecBackend is what the front server's /healthz said it computes with.
	vecBackend string
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentileMS is the nearest-rank p-th percentile of ds, which must be
// sorted, in milliseconds.
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0 // every operation failed; the run is reported incorrect
	}
	rank := int(math.Ceil(float64(len(ds))*p/100)) - 1
	return float64(ds[min(max(rank, 0), len(ds)-1)]) / float64(time.Millisecond)
}

// endToEnd reduces a run's lifetimes to the end-to-end metrics. Every metric
// is worked out per lifetime and reported as the median over lifetimes, so
// that one lifetime the host slowed down cannot set any of them.
func endToEnd(lts []*lifetime) *measured {
	m := &measured{metrics: make(map[string]float64), vecBackend: lts[0].after.VecBackend.Backend}
	verified := 0
	for _, lt := range lts {
		slices.Sort(lt.latencies)
		verified += len(lt.latencies)
		m.attempted += lt.attempted
		m.failures = append(m.failures, lt.failures...)
	}
	m.failed = m.attempted - verified
	if len(m.failures) > 0 && m.failed == 0 {
		m.failed = 1 // a wrong set-up answer fails the run even if the round held
	}
	for name, f := range map[string]func(*lifetime) float64{
		"setup_s":     func(lt *lifetime) float64 { return lt.setupS },
		"gcups":       func(lt *lifetime) float64 { return float64(lt.verifiedCells) / lt.wallS / 1e9 },
		"qps":         func(lt *lifetime) float64 { return float64(len(lt.latencies)) / lt.wallS },
		"p50_ms":      func(lt *lifetime) float64 { return percentileMS(lt.latencies, 50) },
		"p95_ms":      func(lt *lifetime) float64 { return percentileMS(lt.latencies, 95) },
		"rss_peak_mb": func(lt *lifetime) float64 { return lt.rssMB },
	} {
		xs := make([]float64, len(lts))
		for i, lt := range lts {
			xs[i] = f(lt)
		}
		m.metrics[name] = median(xs)
	}
	return m
}

// layersOf reads the per-layer metrics the end-to-end side can see: the
// front server's scheduler counters and the servers' CPU time, both as
// deltas around the round.
func layersOf(lt *lifetime, in *inputs) map[string]float64 {
	out := make(map[string]float64)
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	b, a := lt.before.Scheduler, lt.after.Scheduler
	submitted := a.Submitted - b.Submitted
	out["qsched.mean_batch"] = ratio(a.BatchedQueries-b.BatchedQueries, a.Batches-b.Batches)
	out["qsched.cache_hit_ratio"] = ratio(a.CacheHits-b.CacheHits, submitted)
	out["qsched.join_ratio"] = ratio(a.Joined-b.Joined, submitted)
	out["proc.cpu_util"] = lt.cpuS / (lt.wallS * float64(runtime.NumCPU()))
	out["proc.cpu_s_per_gcell"] = lt.cpuS / (float64(in.cellsPerRound) / 1e9)
	out["e2e.gcells_per_round"] = float64(in.cellsPerRound) / 1e9
	return out
}

// prepare generates a workload's inputs under a fresh scratch directory and
// returns them with the time that took.
func prepare(w workload, sc scale, seed uint64, dir, swindex string) (*inputs, float64, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	in := generate(w, sc, seed)
	if err := in.materialise(dir, swindex); err != nil {
		return nil, 0, err
	}
	if w.medium {
		p := in.db.scan(in.warm[0].Res, topK, runtime.NumCPU())
		in.pin = &p
	}
	return in, time.Since(start).Seconds(), nil
}
