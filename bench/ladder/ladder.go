// Package ladder is the traced run of the benchmark: it times the public
// entry point of each layer, bottom to top, on one workload's inputs, and
// records every call as a span. It is the only part of bench/ that imports
// heterosw and its internal packages; the end-to-end side drives binaries.
//
// From outside, a rung's children cannot be seen inside it, so rungs are
// timed one after another on the same queries, and a layer's self time is
// its span minus the span of the rung below for the same query.
//
// Every rung is timed Repeats times per query, each time on another
// single-residue variant of it, so that no result cache ever sees a repeat
// and every rung does the same cells. A query's time through a rung is the
// fastest of its repeats — on a shared host interference only ever adds
// time — and a metric is the median of that over the queries.
//
// The functions called here are what the benchmark pins. A later change that
// removes one keeps a one-line wrapper until a benchmark change retires the
// rung: vec.StepCol16SP, vec.StepCol8SP, profile.NewQuery,
// profile.ScoreRows.Build, index.Open, sequence.ReadFASTAFile, seqdb.New,
// seqdb.Database.Partition, seqdb.PaddingEfficiency, core.AlignGroup,
// core.Engine.Search, core.Dispatcher.Search, swalign.Align,
// stats.FitEValues, heterosw.Cluster.Search, Cluster.SearchScheduled,
// heterosw.NewHTTPHandler, heterosw.NewDistributedCluster,
// heterosw.NewShardServer, heterosw.SplitIndexFile.
package ladder

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"heterosw"
	"heterosw/internal/core"
	"heterosw/internal/device"
	"heterosw/internal/profile"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
	"heterosw/internal/seqdb/index"
	"heterosw/internal/sequence"
	"heterosw/internal/stats"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
	"heterosw/internal/vec"
)

// Seq is one sequence handed over by the generator: an id and ASCII
// residues.
type Seq struct {
	ID, Residues string
}

// Config is one workload's inputs.
type Config struct {
	// FASTA and SWDB are the workload's database in both on-disk forms;
	// Dir is scratch space for the shard cut.
	FASTA, SWDB, Dir string
	// Queries are the ladder's queries, one trace each, and Repeats how
	// often each rung is timed per query. Warm is a further query used only
	// to fill lazy caches before a rung is timed.
	Queries []Seq
	Repeats int
	Warm    Seq
	// Report selects the serving request shape (top-10 with tracebacks and
	// E-values) for the rungs from Cluster.Search up; score-only otherwise.
	Report bool
	// Tail is a long-sequence tail (every subject above
	// core.DefaultLongSeqThreshold) for the long-path rung. TailInDB says
	// whether the workload's database contains it.
	Tail     []Seq
	TailInDB bool
	// SpansPath receives the spans as JSON lines.
	SpansPath string
}

// Span is one timed call. Times are nanoseconds since the ladder started.
type Span struct {
	Trace   string `json:"trace"`
	Rep     int    `json:"rep"`
	Layer   string `json:"layer"`
	Rung    string `json:"rung"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent"`
}

// Result is the ladder's per-layer metrics by name; the median duration of
// its top rung (a POST /search miss) over the queries as given, unrepeated,
// for comparison with the same requests sent to the real binary; and its
// span count.
type Result struct {
	Metrics        map[string]float64
	TopRungSeconds float64
	Spans          int
}

// The swserve defaults, restated: the ladder must climb the same
// configuration the end-to-end servers run.
var (
	clusterOptions = heterosw.ClusterOptions{
		Options: heterosw.Options{Variant: heterosw.VariantIntrinsicSP},
		Devices: []heterosw.DeviceKind{heterosw.DeviceXeon, heterosw.DevicePhi},
		Dist:    "dynamic",
	}
	searchOptions = core.SearchOptions{
		Params:   core.Params{Variant: core.IntrinsicSP, GapOpen: 10, GapExtend: 2, Blocked: true},
		Schedule: sched.Dynamic,
	}
	scoring = swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}
)

const reportHits = 10

// trace is one ladder query in the forms the layers take, one per variant.
type trace struct {
	id     string
	length int
	text   []Seq
	impl   []*sequence.Sequence
	pub    []heterosw.Sequence
}

// variant returns q with residue r-1 swapped for another letter; variant 0
// is q itself.
func variant(q Seq, r int) Seq {
	if r == 0 {
		return q
	}
	res := []byte(q.Residues)
	at := (r - 1) % len(res)
	if res[at] == 'A' {
		res[at] = 'G'
	} else {
		res[at] = 'A'
	}
	return Seq{ID: q.ID, Residues: string(res)}
}

type ladder struct {
	cfg    Config
	t0     time.Time
	spans  []Span
	traces []*trace
	// dur holds, per rung and trace, the fastest repeat in seconds.
	dur map[string]map[string]float64
	out map[string]float64

	db     *seqdb.Database
	groups []*seqdb.LaneGroup
	warm   *sequence.Sequence
	report []heterosw.ReportOptions
	// kernelRate is the median single-thread AlignGroup rate, cells/s.
	kernelRate float64
	// topRung collects the unrepeated POST /search miss durations.
	topRung []float64
}

// Run climbs the ladder. Cancelling ctx abandons it at the next call that
// takes a context.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Queries) == 0 || cfg.Repeats < 1 {
		return nil, fmt.Errorf("ladder: no queries or no repeats")
	}
	l := &ladder{cfg: cfg, t0: time.Now(), dur: make(map[string]map[string]float64), out: make(map[string]float64)}
	for _, q := range cfg.Queries {
		t := &trace{id: q.ID, length: len(q.Residues)}
		// Twice as many variants as repeats: the HTTP rungs take the second
		// half, see serving.
		for r := 0; r < 2*cfg.Repeats; r++ {
			v := variant(q, r)
			t.text = append(t.text, v)
			t.impl = append(t.impl, sequence.FromString(v.ID, v.Residues))
			t.pub = append(t.pub, heterosw.NewSequence(v.ID, v.Residues))
		}
		l.traces = append(l.traces, t)
	}
	l.warm = sequence.FromString(cfg.Warm.ID, cfg.Warm.Residues)
	if cfg.Report {
		l.report = []heterosw.ReportOptions{{Alignments: true, EValues: true, TopK: reportHits}}
	}
	for _, step := range []func() error{
		l.vecRoof, l.profiles, l.database, l.kernel, l.engine, l.longPath, l.dispatcher,
		func() error { return l.serving(ctx) },
		func() error { return l.distributed(ctx) },
	} {
		if err := step(); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if err := l.writeSpans(); err != nil {
		return nil, err
	}
	return &Result{Metrics: l.out, TopRungSeconds: median(l.topRung), Spans: len(l.spans)}, nil
}

// span times fn as repeat rep of rung for trace.
func (l *ladder) span(trace string, rep int, layer, rung, parent string, fn func()) float64 {
	start := time.Since(l.t0)
	fn()
	end := time.Since(l.t0)
	l.spans = append(l.spans, Span{Trace: trace, Rep: rep, Layer: layer, Rung: rung,
		StartNS: start.Nanoseconds(), EndNS: end.Nanoseconds(), Parent: parent})
	if l.dur[rung] == nil {
		l.dur[rung] = make(map[string]float64)
	}
	d := (end - start).Seconds()
	if best, ok := l.dur[rung][trace]; !ok || d < best {
		l.dur[rung][trace] = d
	}
	return d
}

// each calls fn for every trace and repeat, repeat-major, so that the
// repeats of one query are spread over the rung's whole running time.
func (l *ladder) each(fn func(t *trace, r int) error) error {
	for r := 0; r < l.cfg.Repeats; r++ {
		for _, t := range l.traces {
			if err := fn(t, r); err != nil {
				return err
			}
		}
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// perTrace is the median over traces of f(trace, its time through rung).
func (l *ladder) perTrace(rung string, f func(t *trace, seconds float64) float64) float64 {
	var xs []float64
	for _, t := range l.traces {
		xs = append(xs, f(t, l.dur[rung][t.id]))
	}
	return median(xs)
}

// seconds is the median time through rung.
func (l *ladder) seconds(rung string) float64 {
	return l.perTrace(rung, func(_ *trace, s float64) float64 { return s })
}

// rate is the median cells per second through rung, where a trace's cells
// are its query length times residues.
func (l *ladder) rate(rung string, residues int64) float64 {
	return l.perTrace(rung, func(t *trace, s float64) float64 {
		return float64(t.length) * float64(residues) / s
	})
}

// self is the median of a trace's time through rung minus through below.
func (l *ladder) self(rung, below string) float64 {
	return l.perTrace(rung, func(t *trace, s float64) float64 { return s - l.dur[below][t.id] })
}

// fastest is the shortest time any repeat of a query-independent rung took.
func (l *ladder) fastest(rung string) float64 {
	best := math.Inf(1)
	for _, d := range l.dur[rung] {
		best = min(best, d)
	}
	return best
}

// heap measures the bytes and objects fn allocates.
func heap(fn func()) (bytes, objects float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc), float64(b.Mallocs - a.Mallocs)
}

// Repeats of the rungs that take no query.
const fixedRepeats = 7

// vecRoof times the fused column primitives alone, on one L1-resident tile
// of the kernel's own shape: the roof every layer above is read against.
func (l *ladder) vecRoof() error {
	const (
		rows    = core.DefaultBlockRows
		columns = 20000
	)
	seq := make([]uint8, rows)
	for i := range seq {
		seq[i] = uint8(i % 20)
	}
	{
		lanes := device.Xeon().Lanes
		h, e := make(vec.I16, rows*lanes), make(vec.I16, rows*lanes)
		f, diag, maxv := make(vec.I16, lanes), make(vec.I16, lanes), make(vec.I16, lanes)
		score := make([]int16, 24*lanes)
		for i := range score {
			score[i] = int16(i%7 - 3)
		}
		for r := 0; r < fixedRepeats; r++ {
			l.span("roof", r, "vec", "vec.stepcol16sp", "core.aligngroup", func() {
				for c := 0; c < columns; c++ {
					vec.StepCol16SP(h, e, f, diag, maxv, score, seq, rows, lanes, 12, 2)
				}
			})
		}
		l.out["vec.stepcol16sp_gcells_s"] = float64(rows*lanes*columns) / l.fastest("vec.stepcol16sp") / 1e9
	}
	{
		lanes := device.Xeon().ByteLanes()
		h, e := make(vec.U8, rows*lanes), make(vec.U8, rows*lanes)
		f, diag, maxv := make(vec.U8, lanes), make(vec.U8, lanes), make(vec.U8, lanes)
		score := make([]uint8, 24*lanes)
		for i := range score {
			score[i] = uint8(i % 7)
		}
		for r := 0; r < fixedRepeats; r++ {
			l.span("roof", r, "vec", "vec.stepcol8sp", "core.aligngroup", func() {
				for c := 0; c < columns; c++ {
					vec.StepCol8SP(h, e, f, diag, maxv, score, seq, rows, lanes, 4, 12, 2)
				}
			})
		}
		l.out["vec.stepcol8sp_gcells_s"] = float64(rows*lanes*columns) / l.fastest("vec.stepcol8sp") / 1e9
	}
	return nil
}

// profiles times the per-query and per-column profile builders.
func (l *ladder) profiles() error {
	const builds = 20000
	lanes := device.Xeon().Lanes
	column := make([]uint8, lanes)
	for i := range column {
		column[i] = uint8(i % 20)
	}
	sr := profile.NewScoreRows(lanes)
	_ = l.each(func(t *trace, r int) error { // nothing in it can fail
		var qp *profile.Query
		l.span(t.id, r, "profile", "profile.newquery", "core.aligngroup", func() {
			qp = profile.NewQuery(t.impl[r].Residues, submat.BLOSUM62)
		})
		l.span(t.id, r, "profile", "profile.scorerows", "core.aligngroup", func() {
			for b := 0; b < builds; b++ {
				sr.Build(qp, column)
			}
		})
		return nil
	})
	l.out["profile.newquery_ns_per_res"] = l.perTrace("profile.newquery", func(t *trace, s float64) float64 {
		return s * 1e9 / float64(t.length)
	})
	l.out["profile.scorerows_ns_per_col"] = l.seconds("profile.scorerows") * 1e9 / builds
	return nil
}

// database times the three ways a server gets its database ready, and keeps
// the index-loaded one for the rungs above.
func (l *ladder) database() error {
	lanes := device.Xeon().Lanes
	for r := 0; r < fixedRepeats; r++ {
		var err error
		l.span("setup", r, "seqdb", "seqdb.open_index", "core.engine", func() {
			var ix *index.Index
			if ix, err = index.Open(l.cfg.SWDB); err == nil {
				l.db = ix.Database()
			}
		})
		if err != nil {
			return fmt.Errorf("ladder: open index: %w", err)
		}
		l.span("setup", r, "seqdb", "seqdb.fasta_load", "core.engine", func() {
			var seqs []*sequence.Sequence
			if seqs, err = sequence.ReadFASTAFile(l.cfg.FASTA); err == nil {
				seqdb.New(seqs, true)
			}
		})
		if err != nil {
			return fmt.Errorf("ladder: load FASTA: %w", err)
		}
		l.span("setup", r, "seqdb", "seqdb.partition", "core.engine", func() {
			l.groups, _ = l.db.Partition(lanes, core.DefaultLongSeqThreshold)
		})
	}
	l.out["seqdb.open_index_ms"] = l.fastest("seqdb.open_index") * 1e3
	l.out["seqdb.fasta_load_ms"] = l.fastest("seqdb.fasta_load") * 1e3
	l.out["seqdb.partition_ms"] = l.fastest("seqdb.partition") * 1e3
	l.out["seqdb.padding_eff"] = seqdb.PaddingEfficiency(l.groups)
	return nil
}

// kernel runs the inter-task kernel over every lane group on one thread.
func (l *ladder) kernel() error {
	bufs := core.NewBuffers(device.Xeon().Lanes)
	var residues int64
	for _, g := range l.groups {
		residues += g.Residues
	}
	_ = l.each(func(t *trace, r int) error { // nothing in it can fail
		qp := profile.NewQuery(t.impl[r].Residues, submat.BLOSUM62)
		l.span(t.id, r, "core", "core.aligngroup", "core.engine", func() {
			for _, g := range l.groups {
				core.AlignGroup(qp, g, searchOptions.Params, bufs)
			}
		})
		return nil
	})
	l.kernelRate = l.rate("core.aligngroup", residues)
	l.out["core.aligngroup_gcells_s"] = l.kernelRate / 1e9
	l.out["core.aligngroup_eff"] = l.kernelRate / 1e9 / l.out["vec.stepcol16sp_gcells_s"]
	return nil
}

// engine runs Algorithm 1 on every core and counts what one query allocates.
func (l *ladder) engine() error {
	eng, err := core.NewEngine(l.db, device.Xeon())
	if err != nil {
		return err
	}
	if _, err := eng.Search(l.warm, searchOptions); err != nil {
		return err
	}
	var bytesPer, objectsPer []float64
	err = l.each(func(t *trace, r int) (err error) {
		b, o := heap(func() {
			l.span(t.id, r, "core", "core.engine", "core.dispatcher", func() {
				_, err = eng.Search(t.impl[r], searchOptions)
			})
		})
		bytesPer, objectsPer = append(bytesPer, b), append(objectsPer, o)
		return err
	})
	if err != nil {
		return err
	}
	rate := l.rate("core.engine", l.db.Residues())
	l.out["core.engine_gcells_s"] = rate / 1e9
	l.out["core.engine_eff"] = rate / (float64(runtime.GOMAXPROCS(0)) * l.kernelRate)
	l.out["core.engine_bytes_per_query"] = median(bytesPer)
	l.out["core.engine_allocs_per_query"] = median(objectsPer)
	return nil
}

// longPath runs the engine with one worker over the tail alone, where every
// subject takes the long-sequence path, and works out the share of this
// workload's single-thread kernel time that path accounts for.
func (l *ladder) longPath() error {
	seqs := make([]*sequence.Sequence, len(l.cfg.Tail))
	for i, s := range l.cfg.Tail {
		seqs[i] = sequence.FromString(s.ID, s.Residues)
	}
	tail := seqdb.New(seqs, true)
	eng, err := core.NewEngine(tail, device.Xeon())
	if err != nil {
		return err
	}
	opt := searchOptions
	opt.Workers = 1
	err = l.each(func(t *trace, r int) (err error) {
		l.span(t.id, r, "core", "core.engine_longpath", "core.engine", func() {
			_, err = eng.Search(t.impl[r], opt)
		})
		return err
	})
	if err != nil {
		return err
	}
	rate := l.rate("core.engine_longpath", tail.Residues())
	l.out["core.longpath_gcells_s"] = rate / 1e9
	l.out["core.longpath_time_share"] = 0
	if l.cfg.TailInDB {
		long := float64(tail.Residues()) / rate
		short := float64(l.db.Residues()-tail.Residues()) / l.kernelRate
		l.out["core.longpath_time_share"] = long / (long + short)
	}
	return nil
}

// dispatcher runs the two-backend dynamic dispatcher the servers use, then
// the two reporting phases on its result: tracebacks of the top hits and the
// significance fit over all scores.
func (l *ladder) dispatcher() error {
	disp, err := core.NewDispatcher(l.db, []core.Backend{
		core.NewBackend("xeon#0", device.Xeon(), 0),
		core.NewBackend("phi#1", device.Phi(), 0),
	})
	if err != nil {
		return err
	}
	dopt := core.DispatchOptions{Search: searchOptions, Dist: core.DistDynamic}
	if _, err := disp.Search(l.warm, dopt); err != nil {
		return err
	}
	alignCells := make(map[string]float64)
	err = l.each(func(t *trace, r int) (err error) {
		q := t.impl[r]
		var res *core.ClusterResult
		l.span(t.id, r, "core", "core.dispatcher", "cluster.search", func() {
			res, err = disp.Search(q, dopt)
		})
		if err != nil {
			return err
		}
		top := res.Hits[:min(reportHits, len(res.Hits))]
		var cells float64
		for _, h := range top {
			cells += float64(q.Len()) * float64(l.db.Seq(h.SeqIndex).Len())
		}
		// Variants of one query share their top hits bar chance ties at the
		// end of the list; the cells of the last repeat stand for all.
		alignCells[t.id] = cells
		l.span(t.id, r, "swalign", "swalign.align", "cluster.report", func() {
			for _, h := range top {
				swalign.Align(q.Residues, l.db.Seq(h.SeqIndex).Residues, scoring)
			}
		})
		scores := make([]int, len(res.Scores))
		for i, s := range res.Scores {
			scores[i] = int(s)
		}
		l.span(t.id, r, "stats", "stats.fit", "cluster.report", func() {
			_, err = stats.FitEValues(scores, 0)
		})
		return err
	})
	if err != nil {
		return err
	}
	rate := l.rate("core.dispatcher", l.db.Residues())
	l.out["core.dispatcher_gcells_s"] = rate / 1e9
	l.out["core.dispatcher_eff"] = rate / 1e9 / l.out["core.engine_gcells_s"]
	l.out["swalign.align_mcells_s"] = l.perTrace("swalign.align", func(t *trace, s float64) float64 {
		return alignCells[t.id] / s / 1e6
	})
	l.out["stats.fit_us"] = l.seconds("stats.fit") * 1e6
	return nil
}

func (l *ladder) newCluster() (*heterosw.Cluster, error) {
	db, err := heterosw.OpenIndexFile(l.cfg.SWDB)
	if err != nil {
		return nil, err
	}
	cl, err := heterosw.NewCluster(db, clusterOptions)
	if err != nil {
		return nil, err
	}
	// Fill the lazy chunk partitions and lane packings before anything is
	// timed.
	if _, err := cl.Search(heterosw.NewSequence(l.cfg.Warm.ID, l.cfg.Warm.Residues)); err != nil {
		return nil, err
	}
	return cl, nil
}

// searchBody is the POST /search request of the workload's shape.
func (l *ladder) searchBody(q Seq) []byte {
	body, err := json.Marshal(map[string]any{
		"id": q.ID, "residues": q.Residues, "top_k": reportHits,
		"align": l.cfg.Report, "evalue": l.cfg.Report,
	})
	if err != nil {
		panic(err) // strings, ints and bools always marshal
	}
	return body
}

// serving climbs the public half on one cluster: the search score-only and
// with the workload's report; through the serving scheduler, a miss then a
// hit; and as POST /search to the JSON handler over a loopback listener, a
// miss then a hit. The six calls of one query run back to back, so that the
// differences between them see the host in one state; the HTTP pair uses a
// further variant of the query, which the cache it shares with the
// scheduler pair has not seen.
func (l *ladder) serving(ctx context.Context) error {
	cl, err := l.newCluster()
	if err != nil {
		return err
	}
	defer cl.CloseNow()
	srv := httptest.NewServer(heterosw.NewHTTPHandler(cl))
	defer srv.Close()
	var bytesPer, objectsPer, sizes []float64
	err = l.each(func(t *trace, r int) (err error) {
		q := t.pub[r]
		b, o := heap(func() {
			l.span(t.id, r, "heterosw", "cluster.search", "cluster.report", func() {
				_, err = cl.Search(q)
			})
		})
		if err != nil {
			return err
		}
		bytesPer, objectsPer = append(bytesPer, b), append(objectsPer, o)
		l.span(t.id, r, "heterosw", "cluster.report", "qsched.miss", func() {
			_, err = cl.Search(q, l.report...)
		})
		if err != nil {
			return err
		}
		for _, rung := range []string{"qsched.miss", "qsched.hit"} {
			l.span(t.id, r, "qsched", rung, "server"+rung[len("qsched"):], func() {
				_, err = cl.SearchScheduled(ctx, q, l.report...)
			})
			if err != nil {
				return err
			}
		}
		body := l.searchBody(t.text[l.cfg.Repeats+r])
		for _, rung := range []string{"server.miss", "server.hit"} {
			var n int
			d := l.span(t.id, r, "server", rung, "", func() {
				n, err = post(ctx, srv.Client(), srv.URL+"/search", body)
			})
			if err != nil {
				return err
			}
			if r == 0 && rung == "server.miss" {
				l.topRung = append(l.topRung, d)
			}
			sizes = append(sizes, float64(n))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.out["cluster.search_ms"] = l.seconds("cluster.search") * 1e3
	l.out["cluster.search_eff"] = l.rate("cluster.search", l.db.Residues()) / 1e9 / l.out["core.dispatcher_gcells_s"]
	l.out["cluster.decorate_ms"] = l.self("cluster.report", "cluster.search") * 1e3
	l.out["cluster.bytes_per_query"] = median(bytesPer)
	l.out["cluster.allocs_per_query"] = median(objectsPer)
	l.out["qsched.miss_overhead_us"] = l.self("qsched.miss", "cluster.report") * 1e6
	l.out["qsched.hit_ns"] = l.seconds("qsched.hit") * 1e9
	l.out["server.miss_overhead_us"] = l.self("server.miss", "qsched.miss") * 1e6
	l.out["server.hit_us"] = l.seconds("server.hit") * 1e6
	l.out["server.resp_bytes"] = median(sizes)
	return nil
}

func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("ladder: POST %s: status %d", url, resp.StatusCode)
	}
	return int(n), err
}

// wireTally counts what crosses the shard wire.
type wireTally struct {
	requests, bytes atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return w.ResponseWriter.Write(p)
}

// counted is the counting proxy in front of one of the ladder's in-process
// shard nodes. It counts requests and body bytes of the shard execution
// protocol only, so topology probes do not blur the per-query counts.
func counted(node http.Handler, t *wireTally) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/shard/") {
			t.requests.Add(1)
			t.bytes.Add(r.ContentLength)
			w = countingWriter{w, &t.bytes}
		}
		node.ServeHTTP(w, r)
	})
}

// distributed cuts the database in two, serves each shard from an in-process
// node, and searches through a coordinator; then searches each shard locally
// to find what the slowest one costs without the wire.
func (l *ladder) distributed(ctx context.Context) error {
	manifest, err := heterosw.SplitIndexFile(l.cfg.SWDB, 2, l.cfg.Dir, "ladder")
	if err != nil {
		return err
	}
	var (
		tally  wireTally
		urls   []string
		shards []*heterosw.Cluster
	)
	for i := 0; i < 2; i++ {
		db, err := heterosw.OpenIndexFile(filepath.Join(l.cfg.Dir, fmt.Sprintf("ladder-%02d.swdb", i)))
		if err != nil {
			return err
		}
		cl, err := heterosw.NewCluster(db, clusterOptions)
		if err != nil {
			return err
		}
		defer cl.CloseNow()
		node, err := heterosw.NewShardServer([]*heterosw.Cluster{cl})
		if err != nil {
			return err
		}
		srv := httptest.NewServer(counted(node.Handler(), &tally))
		defer srv.Close()
		shards = append(shards, cl)
		urls = append(urls, srv.URL)
	}
	parent, err := heterosw.OpenIndexFile(l.cfg.SWDB)
	if err != nil {
		return err
	}
	coord, err := heterosw.NewDistributedCluster(ctx, parent, manifest, urls,
		heterosw.DistributedOptions{Options: clusterOptions.Options, ProbeInterval: -1})
	if err != nil {
		return err
	}
	defer coord.CloseNow()
	warm := heterosw.NewSequence(l.cfg.Warm.ID, l.cfg.Warm.Residues)
	if _, err := coord.Search(warm, l.report...); err != nil {
		return err
	}
	tally.requests.Store(0)
	tally.bytes.Store(0)
	err = l.each(func(t *trace, r int) (err error) {
		l.span(t.id, r, "remote", "remote.coordinator", "", func() {
			_, err = coord.Search(t.pub[r], l.report...)
		})
		return err
	})
	if err != nil {
		return err
	}
	n := float64(len(l.traces) * l.cfg.Repeats)
	l.out["remote.roundtrips_per_query"] = float64(tally.requests.Load()) / n
	l.out["remote.wire_bytes_per_query"] = float64(tally.bytes.Load()) / n

	// The nodes' result caches now hold every ladder query, so the local
	// pass goes around them: Cluster.Search bypasses scheduler and cache. A
	// query waits for its slowest shard, so that one's time is kept.
	slowest := make(map[string]float64)
	err = l.each(func(t *trace, r int) (err error) {
		var worst float64
		for i, cl := range shards {
			worst = max(worst, l.span(t.id, r, "remote", fmt.Sprintf("remote.shard%d_local", i), "remote.coordinator", func() {
				_, err = cl.Search(t.pub[r])
			}))
			if err != nil {
				return err
			}
		}
		if best, ok := slowest[t.id]; !ok || worst < best {
			slowest[t.id] = worst
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.dur["remote.slowest_shard_local"] = slowest
	l.out["remote.fanout_overhead_ms"] = l.self("remote.coordinator", "remote.slowest_shard_local") * 1e3
	return nil
}

func (l *ladder) writeSpans() error {
	f, err := os.Create(l.cfg.SpansPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
