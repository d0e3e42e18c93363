// Command bench is the repository's benchmark: it drives the real swserve
// and swindex binaries with their default flags over HTTP on seeded inputs
// of its own, verifies every answer against an independent oracle, and
// reports the metrics BENCHMARK.json declares. See README.md.
//
// bench/run.sh builds the three binaries and runs this one; the driver's
// contract is
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of standard output is one JSON object. With --trace 0 a
// run measures the end-to-end metrics over repeated server lifetimes; with
// --trace 1 it runs one lifetime for the per-layer numbers the servers
// export, then climbs the in-process ladder (package ladder) on the same
// inputs and writes spans.jsonl.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"heterosw/bench/ladder"
)

type metricDef struct {
	name, unit string
}

// endToEndMetrics and perLayerMetrics are the names BENCHMARK.json
// declares, in print order; metrics_test.go keeps the two in step.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"}, {"gcups", "Gcells/s"}, {"qps", "1/s"},
	{"p50_ms", "ms"}, {"p95_ms", "ms"}, {"rss_peak_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"vec.stepcol16sp_gcells_s", "Gcells/s"}, {"vec.stepcol8sp_gcells_s", "Gcells/s"},
	{"profile.newquery_ns_per_res", "ns"}, {"profile.scorerows_ns_per_col", "ns"},
	{"seqdb.open_index_ms", "ms"}, {"seqdb.fasta_load_ms", "ms"},
	{"seqdb.partition_ms", "ms"}, {"seqdb.padding_eff", "ratio"},
	{"core.aligngroup_gcells_s", "Gcells/s"}, {"core.aligngroup_eff", "ratio"},
	{"core.longpath_gcells_s", "Gcells/s"}, {"core.longpath_time_share", "ratio"},
	{"core.engine_gcells_s", "Gcells/s"}, {"core.engine_eff", "ratio"},
	{"core.engine_bytes_per_query", "B"}, {"core.engine_allocs_per_query", "count"},
	{"core.dispatcher_gcells_s", "Gcells/s"}, {"core.dispatcher_eff", "ratio"},
	{"swalign.align_mcells_s", "Mcells/s"}, {"stats.fit_us", "us"},
	{"cluster.search_ms", "ms"}, {"cluster.search_eff", "ratio"}, {"cluster.decorate_ms", "ms"},
	{"cluster.bytes_per_query", "B"}, {"cluster.allocs_per_query", "count"},
	{"qsched.miss_overhead_us", "us"}, {"qsched.hit_ns", "ns"},
	{"qsched.mean_batch", "count"}, {"qsched.cache_hit_ratio", "ratio"}, {"qsched.join_ratio", "ratio"},
	{"server.miss_overhead_us", "us"}, {"server.hit_us", "us"}, {"server.resp_bytes", "B"},
	{"remote.fanout_overhead_ms", "ms"}, {"remote.wire_bytes_per_query", "B"},
	{"remote.roundtrips_per_query", "count"},
	{"proc.cpu_util", "ratio"}, {"proc.cpu_s_per_gcell", "s"},
	{"trace.top_rung_vs_e2e", "ratio"},
	{"e2e.gcells_per_round", "Gcells"}, {"bench.prep_s", "s"},
}

type config struct {
	workloads  []workload
	seed       uint64
	seconds    float64
	trace      int
	rounds     int
	ladderOnly bool
	quick      bool
	bin, work  string
	out        string
	repeat     int
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		cfg   config
		names string
	)
	flag.StringVar(&names, "workload", "all", "comma-separated workloads, or all: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measure as many fixed-work rounds as nominally add up to this long")
	flag.IntVar(&cfg.trace, "trace", -1, "0: end-to-end metrics; 1: per-layer metrics and spans; -1: one after the other")
	flag.IntVar(&cfg.rounds, "rounds", 0, "measure exactly this many rounds (server lifetimes) instead of what -seconds picks")
	flag.BoolVar(&cfg.ladderOnly, "ladder-only", false, "with -trace 1, skip the server lifetime and climb the ladder only (prints no result line)")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny inputs, for tests")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding swserve and swindex (default: this binary's)")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for scratch files; each run removes its own")
	flag.StringVar(&cfg.out, "out", "", "directory for server logs and spans.jsonl (default: <work>/out)")
	flag.IntVar(&cfg.repeat, "repeat", 0, "run this many seeds from -seed up, end to end, and write their spread to <out>/baseline.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	for _, name := range strings.Split(names, ",") {
		if name == "all" {
			cfg.workloads = append(cfg.workloads, workloads...)
			continue
		}
		w, ok := workloadByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", name, workloadNames())
			return 2
		}
		cfg.workloads = append(cfg.workloads, w)
	}
	if cfg.bin == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		cfg.bin = filepath.Dir(exe)
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.work, "out")
	}

	// Every child is stopped and the scratch directory removed on every way
	// out: return, panic, SIGINT and SIGTERM.
	ps := newProcSet()
	scratch := filepath.Join(cfg.work, fmt.Sprintf("run-%d", os.Getpid()))
	cleanup := func() {
		ps.stopAll()
		os.RemoveAll(scratch)
	}
	defer cleanup()
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	b := &bench{cfg: cfg, ps: ps, scratch: scratch, w: os.Stdout}
	var err error
	if cfg.repeat > 0 {
		err = b.repeat(ctx)
	} else {
		err = b.run(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type bench struct {
	cfg     config
	ps      *procSet
	scratch string
	// w receives everything a run prints.
	w io.Writer
}

func (b *bench) scale() scale {
	if b.cfg.quick {
		return quickScale
	}
	return fullScale
}

// errIncorrect reports a run whose answers did not all verify.
var errIncorrect = errors.New("answers failed verification")

// run measures every selected workload once and prints its results.
func (b *bench) run(ctx context.Context) error {
	var failed error
	for _, w := range b.cfg.workloads {
		if b.cfg.trace != 1 {
			m, err := b.endToEnd(ctx, w, b.cfg.seed)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !b.report(w, endToEndMetrics, m) {
				failed = errIncorrect
			}
		}
		if b.cfg.trace != 0 {
			m, err := b.traced(ctx, w, b.cfg.seed)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if m != nil && !b.report(w, perLayerMetrics, m) {
				failed = errIncorrect
			}
		}
	}
	return failed
}

// report prints one run: a table for people, then the contract's JSON line.
// It says whether every answer verified.
func (b *bench) report(w workload, defs []metricDef, m *measured) bool {
	for i, err := range m.failures {
		if i == 10 {
			fmt.Fprintf(b.w, "# ... and %d more\n", len(m.failures)-i)
			break
		}
		fmt.Fprintf(b.w, "# FAILED %v\n", err)
	}
	b.table(w, defs, m)
	line := resultLine{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := m.metrics[d.name]
		if !ok {
			panic("bench: metric " + d.name + " was declared but not measured")
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(b.w, "%-14s operations attempted %d, failed %d\n", w.name, m.attempted, m.failed)
	out, err := json.Marshal(line)
	if err != nil {
		panic(err) // NaN or Inf: a metric divided by a zero it must never see
	}
	fmt.Fprintln(b.w, string(out))
	return line.Correct
}

// table prints the metrics of defs that m holds, one per line.
func (b *bench) table(w workload, defs []metricDef, m *measured) {
	for _, d := range defs {
		if v, ok := m.metrics[d.name]; ok {
			fmt.Fprintf(b.w, "%-14s %-32s %16.6g %s\n", w.name, d.name, v, d.unit)
		}
	}
}

func (b *bench) runner(w workload, seed uint64) (*runner, error) {
	logDir := filepath.Join(b.cfg.out, w.name)
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	clients := clientCount()
	return &runner{
		ps: b.ps, swserve: filepath.Join(b.cfg.bin, "swserve"), logDir: logDir,
		hc: newHTTPClient(clients), clients: clients, seed: seed,
	}, nil
}

func (b *bench) prepare(w workload, seed uint64) (*inputs, float64, error) {
	return prepare(w, b.scale(), seed, filepath.Join(b.scratch, w.name), filepath.Join(b.cfg.bin, "swindex"))
}

// endToEnd is the untraced run: lifetimes of fixed work until their rounds
// add up to -seconds (or exactly -rounds of them).
func (b *bench) endToEnd(ctx context.Context, w workload, seed uint64) (*measured, error) {
	r, err := b.runner(w, seed)
	if err != nil {
		return nil, err
	}
	in, prepS, err := b.prepare(w, seed)
	if err != nil {
		return nil, err
	}
	n := b.cfg.rounds
	if n <= 0 {
		n = w.lifetimes(b.cfg.seconds)
	}
	var (
		lts      []*lifetime
		measured float64
	)
	for i := 0; i < n; i++ {
		lt, err := r.live(ctx, in, fmt.Sprintf("life%d", i))
		if err != nil {
			return nil, err
		}
		lts = append(lts, lt)
		measured += lt.wallS
	}
	fmt.Fprintf(b.w, "# %s seed %d: prepared in %.2fs; %d server lifetimes measured %.2fs of rounds, %d clients\n",
		w.name, seed, prepS, len(lts), measured, r.clients)
	return endToEnd(lts), nil
}

// traced is the traced run: one lifetime for the counters only the servers
// can export, then the in-process ladder on the same inputs.
func (b *bench) traced(ctx context.Context, w workload, seed uint64) (*measured, error) {
	r, err := b.runner(w, seed)
	if err != nil {
		return nil, err
	}
	in, prepS, err := b.prepare(w, seed)
	if err != nil {
		return nil, err
	}
	m := &measured{metrics: map[string]float64{"bench.prep_s": prepS}}
	// The ladder climbs with the last of the warm-up queries — by then the
	// server's lazy caches are full — so its top rung and the real binary's
	// warm-up answer the very same requests.
	nq, repeats := w.ladderPlan()
	ladderFrom := max(0, len(in.warm)-nq)
	var warmMS float64
	if !b.cfg.ladderOnly {
		lt, err := r.live(ctx, in, "traced")
		if err != nil {
			return nil, err
		}
		e2e := endToEnd([]*lifetime{lt})
		m.attempted, m.failed, m.failures = e2e.attempted, e2e.failed, e2e.failures
		for k, v := range layersOf(lt, in) {
			m.metrics[k] = v
		}
		warm := slices.Sorted(slices.Values(lt.warm[ladderFrom:]))
		warmMS = percentileMS(warm, 50)
	}

	lcfg := ladder.Config{
		FASTA: in.fasta, SWDB: in.swdb, Dir: filepath.Dir(in.swdb),
		Report: !w.batch, TailInDB: w.tail,
		SpansPath: filepath.Join(r.logDir, "spans.jsonl"), Repeats: repeats,
	}
	toSeq := func(id string, res []byte) ladder.Seq { return ladder.Seq{ID: id, Residues: string(res)} }
	for _, q := range in.warm[ladderFrom:] {
		lcfg.Queries = append(lcfg.Queries, toSeq(q.ID, q.Res))
	}
	lcfg.Warm = toSeq(in.fill.ID, in.fill.Res)
	for _, t := range in.tail {
		lcfg.Tail = append(lcfg.Tail, toSeq(t.ID, t.Res))
	}
	start := time.Now()
	res, err := ladder.Run(ctx, lcfg)
	if err != nil {
		return nil, err
	}
	for k, v := range res.Metrics {
		m.metrics[k] = v
	}
	fmt.Fprintf(b.w, "# %s: ladder wrote %d spans to %s in %.1fs (GOMAXPROCS %d)\n",
		w.name, res.Spans, lcfg.SpansPath, time.Since(start).Seconds(), runtime.GOMAXPROCS(0))
	if b.cfg.ladderOnly {
		b.table(w, perLayerMetrics, m)
		return nil, nil
	}
	// What timing from inside this process costs or hides: the ladder's top
	// rung against the same queries' sequential warm-up requests to the real
	// binary.
	m.metrics["trace.top_rung_vs_e2e"] = res.TopRungSeconds * 1e3 / warmMS
	return m, nil
}
