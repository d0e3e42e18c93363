package main

// The five workloads and the inputs each one is built from.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
)

// scale sizes the generated inputs. Everything a run does is a function of
// (scale, seed, workload).
type scale struct {
	// bodyS and bodyM are the body sizes, in sequences, of DB-S/DB-L and of
	// DB-M.
	bodyS, bodyM int
	// The tail: one titinLen subject, then subjects of
	// [tailMinLen, tailMaxLen] until the tail holds tailShare of DB-L.
	titinLen, tailMinLen, tailMaxLen int
	tailShare                        float64
	// batchLens are the query lengths of one POST /batch.
	batchLens []int
	// warmups sequential single-client queries end every set-up. On batch
	// workloads they are batchWarmLen long; on serving workloads they span
	// [serveLo, serveHi] evenly, as every serving query set does.
	warmups, batchWarmLen int
	serveLo, serveHi      int
	// distinctOps is the request count of one serve_distinct or
	// coord_fanout round; hotOps of one serve_hot round, drawn from hotPool
	// queries.
	distinctOps, hotOps, hotPool int
}

// fullScale is the benchmark. The batch lengths are the paper's even-ranked
// query lengths; the tail share is low single digits, as in Swiss-Prot.
var fullScale = scale{
	bodyS: 5600, bodyM: 16000,
	titinLen: 35213, tailMinLen: 3100, tailMaxLen: 8000, tailShare: 0.025,
	batchLens: []int{189, 375, 567, 729, 1000, 2005, 3005, 4061, 4743, 5478},
	warmups:   8, batchWarmLen: 375, serveLo: 30, serveHi: 120,
	distinctOps: 48, hotOps: 34000, hotPool: 32,
}

// quickScale runs every code path in a few seconds, for the tests.
var quickScale = scale{
	bodyS: 300, bodyM: 600,
	titinLen: 4000, tailMinLen: 3100, tailMaxLen: 3500, tailShare: 0.025,
	batchLens: []int{60, 150, 400},
	warmups:   3, batchWarmLen: 100, serveLo: 30, serveHi: 120,
	distinctOps: 10, hotOps: 300, hotPool: 6,
}

// workload is one traffic mix against one server topology.
type workload struct {
	name string
	// medium selects DB-M's body over DB-S's; tail appends the long-sequence
	// tail (DB-L).
	medium, tail bool
	// coord serves the database from two shard nodes behind a coordinator
	// instead of one server.
	coord bool
	// batch sends one score-only POST /batch per round; otherwise the round
	// is POST /search requests with tracebacks and E-values.
	batch bool
	// hot re-asks a pool of queries posted during set-up, so every request
	// of the round is a cache hit.
	hot bool
	// roundS is how long one round took on the 2-core host the benchmark was
	// sized on. A run's work is fixed, not timed: -seconds picks how many
	// lifetimes, each of one round, add up to at least that long at this
	// nominal length, so that two commits are always compared on identical
	// work — same cells, same cache entries, same wire bytes.
	roundS float64
}

var workloads = []workload{
	{name: "batch_long", tail: true, batch: true, roundS: 7},
	{name: "batch_short", batch: true, roundS: 4.5},
	{name: "serve_distinct", medium: true, roundS: 4},
	{name: "serve_hot", medium: true, hot: true, roundS: 3.5},
	{name: "coord_fanout", medium: true, coord: true, roundS: 4.5},
}

// lifetimes is the number of server lifetimes a run of `seconds` measures:
// never fewer than two, so that every reported median is over more than one
// server start.
func (w workload) lifetimes(seconds float64) int {
	return max(2, int(math.Ceil(seconds/w.roundS)))
}

// ladderPlan is how many of the warm-up queries the traced run's ladder
// climbs with, and how often it times each rung per query. Serving queries
// differ in length, so all of them go, twice; a batch workload's warm-up
// queries are all alike and cost five times as much, so three go, thrice.
func (w workload) ladderPlan() (queries, repeats int) {
	if w.batch {
		return 3, 3
	}
	return 8, 2
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const topK = 10

func (w workload) shape() shape {
	if w.batch {
		return shape{topK: topK}
	}
	return shape{topK: topK, align: true, evalue: true}
}

// inputs is everything one run of one workload needs, generated from the
// seed before any server starts.
type inputs struct {
	w    workload
	db   *database
	tail []record
	// Files under the run's scratch directory.
	fasta, swdb, manifest string
	shards                []string
	// warm are the sequential warm-up queries. setup holds their search
	// requests followed by those of the further pool queries a hot set-up
	// posts; round the ops of one measured round. Every server lifetime of
	// the run replays the same ones, so lifetimes do identical work.
	warm         []query
	setup, round []op
	// fill is one more query of warm's kind that no server ever sees: the
	// ladder fills its lazy caches with it.
	fill query
	// pick maps each op of a hot round to its pool query.
	pick []int
	// pin is the full oracle scan of warm[0] (DB-M workloads).
	pin *pinned
	// cellsPerRound is the exact DP cell count of one round.
	cellsPerRound int64
}

// spread returns n lengths evenly covering [lo, hi], in an order drawn from
// rng: a round's total cells then do not depend on the seed's luck.
func spread(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo
		if n > 1 {
			out[i] = lo + i*(hi-lo)/(n-1)
		}
	}
	rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

func searchOp(q query, sh shape) op {
	body, err := json.Marshal(searchRequest{
		queryJSON: queryJSON{ID: q.ID, Residues: string(q.Res)},
		TopK:      sh.topK, Align: sh.align, EValue: sh.evalue,
	})
	if err != nil {
		panic(err) // strings, ints and bools always marshal
	}
	return op{path: "/search", body: body, queries: []query{q}}
}

func batchOp(qs []query, sh shape) op {
	req := batchRequest{TopK: sh.topK}
	for _, q := range qs {
		req.Queries = append(req.Queries, queryJSON{ID: q.ID, Residues: string(q.Res)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // as in searchOp
	}
	return op{path: "/batch", body: body, queries: qs}
}

// generate draws a workload's database and query sets. Workloads sharing a
// body (batch_long/batch_short; the three DB-M workloads) draw identical
// queries from identical streams, so they differ only in what the workload
// definition says they differ in.
func generate(w workload, sc scale, seed uint64) *inputs {
	in := &inputs{w: w}
	n := sc.bodyS
	if w.medium {
		n = sc.bodyM
	}
	body := genBody(seed, n)
	// The tail is always drawn against DB-S's body: the ladder's long-path
	// rung wants it on every workload.
	in.tail = genTail(seed, residues(body[:sc.bodyS]), sc)
	recs := body
	if w.tail {
		recs = append(recs[:len(recs):len(recs)], in.tail...)
	}
	in.db = newDatabase(recs)

	warm := newQueryStream(seed, streamWarmup, "w", body)
	load := newQueryStream(seed, streamLoad, "q", body)
	pick := rand.New(rand.NewPCG(seed, streamPick))
	sh := w.shape()
	if w.batch {
		for i := 0; i < sc.warmups; i++ {
			in.warm = append(in.warm, warm.next(sc.batchWarmLen))
		}
	} else {
		for _, l := range spread(pick, sc.warmups, sc.serveLo, sc.serveHi) {
			in.warm = append(in.warm, warm.next(l))
		}
	}
	for _, q := range in.warm {
		in.setup = append(in.setup, searchOp(q, sh))
	}
	switch {
	case w.batch:
		var qs []query
		for _, l := range sc.batchLens {
			qs = append(qs, load.next(l))
		}
		in.round = []op{batchOp(qs, sh)}
	case w.hot:
		for _, l := range spread(pick, sc.hotPool-sc.warmups, sc.serveLo, sc.serveHi) {
			in.setup = append(in.setup, searchOp(load.next(l), sh))
		}
		for i := 0; i < sc.hotOps; i++ {
			p := pick.IntN(len(in.setup))
			in.pick = append(in.pick, p)
			in.round = append(in.round, in.setup[p])
		}
	default:
		for _, l := range spread(pick, sc.distinctOps, sc.serveLo, sc.serveHi) {
			in.round = append(in.round, searchOp(load.next(l), sh))
		}
	}
	in.fill = newQueryStream(seed, streamFill, "f", body).next(len(in.warm[0].Res))
	for _, o := range in.round {
		for _, q := range o.queries {
			in.cellsPerRound += int64(len(q.Res)) * in.db.residues
		}
	}
	return in
}

// materialise writes the database under dir in the forms the servers load:
// FASTA, the swindex-built .swdb, and for coord workloads the two-shard cut.
func (in *inputs) materialise(dir, swindex string) error {
	in.fasta = filepath.Join(dir, "db.fasta")
	in.swdb = filepath.Join(dir, "db.swdb")
	if err := writeFASTA(in.fasta, in.db.recs); err != nil {
		return err
	}
	if err := runTool(swindex, "build", in.fasta, "-o", in.swdb); err != nil {
		return err
	}
	if in.w.coord {
		if err := runTool(swindex, "split", in.swdb, "-n", "2", "-dir", dir, "-prefix", "shard"); err != nil {
			return err
		}
		in.manifest = filepath.Join(dir, "shard.manifest.json")
		for i := 0; i < 2; i++ {
			in.shards = append(in.shards, filepath.Join(dir, fmt.Sprintf("shard-%02d.swdb", i)))
		}
	}
	return nil
}
