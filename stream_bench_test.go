package heterosw

// Request-stream throughput benchmarks: the evidence that the cluster's
// query scheduler, fed 64 concurrent Do calls, beats a serial per-query
// worker on a >= 64 query stream.
//
// Two workloads:
//
//   - Hot: 64 requests drawn from a pool of 16 distinct queries — the
//     serving shape (real query traffic repeats its hot queries). The
//     scheduler answers repeats from the LRU cache and joins identical
//     in-flight queries, so it does a quarter of the kernel work; the
//     serial worker recomputes all 64.
//   - Distinct: 64 unique queries — the scheduler's worst case, included
//     to show scheduling costs nothing when there is nothing to share. On
//     multi-core hosts MaxInFlight queries overlap and win; on a single
//     core this is parity.
//
// Each iteration builds a fresh cluster so the cache never carries over
// between iterations; both sides pay identical engine/lane-packing setup.

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

const (
	benchStreamQueries  = 64
	benchStreamDistinct = 16
	benchStreamQueryLen = 100
	benchStreamScale    = 0.0002
)

// benchQueryPool builds the distinct query pool once.
func benchQueryPool(n int) []Sequence {
	const letters = "ARNDCQEGHILKMFPSTWYV"
	out := make([]Sequence, n)
	seed := uint32(7)
	for i := range out {
		buf := make([]byte, benchStreamQueryLen)
		for j := range buf {
			seed = seed*1664525 + 1013904223
			buf[j] = letters[seed%uint32(len(letters))]
		}
		out[i] = NewSequence(fmt.Sprintf("bq%d", i), string(buf))
	}
	return out
}

// benchStream builds the request schedule: n requests over the pool,
// interleaved so repeats are spread across the stream as serving traffic
// spreads its hot queries.
func benchStream(pool []Sequence, n int) []Sequence {
	out := make([]Sequence, n)
	for i := range out {
		out[i] = pool[(i*7)%len(pool)]
	}
	return out
}

var benchStreamDB *Database

func benchDB(b *testing.B) *Database {
	b.Helper()
	if benchStreamDB == nil {
		benchStreamDB, _ = SyntheticSwissProt(benchStreamScale, false)
	}
	return benchStreamDB
}

// serialResult is one delivery of the serial worker.
type serialResult struct {
	index  int
	query  Sequence
	result *Result
	err    error
}

// runSerialWorker replays the PR-1 streaming pipeline exactly: one worker
// goroutine popping an intake queue, searching one query at a time and
// sending into a buffered results channel drained by the consumer.
func runSerialWorker(b *testing.B, cl *Cluster, stream []Sequence) {
	b.Helper()
	out := make(chan serialResult, benchStreamQueries)
	go func() {
		for i, q := range stream {
			res, err := cl.Search(q)
			out <- serialResult{index: i, query: q, result: res, err: err}
		}
		close(out)
	}()
	got := 0
	for sr := range out {
		if sr.err != nil {
			b.Fatal(sr.err)
		}
		got++
	}
	if got != len(stream) {
		b.Fatalf("drained %d of %d", got, len(stream))
	}
}

// runScheduler pushes the same stream through the cluster's scheduler as
// concurrent Do calls, one per request, and collects the results in
// request order.
func runScheduler(b *testing.B, cl *Cluster, stream []Sequence) {
	b.Helper()
	results := make([]*Result, len(stream))
	errs := make([]error, len(stream))
	var wg sync.WaitGroup
	for i, q := range stream {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = cl.Do(context.Background(), Request{Query: q})
		}()
	}
	wg.Wait()
	for i := range stream {
		if errs[i] != nil {
			b.Fatalf("request %d: %v", i, errs[i])
		}
	}
}

func benchCluster(b *testing.B) *Cluster {
	b.Helper()
	cl, err := NewCluster(benchDB(b), ClusterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

func reportStreamRate(b *testing.B, queries int) {
	b.Helper()
	b.ReportMetric(float64(queries*b.N)/b.Elapsed().Seconds(), "queries/s")
}

func benchSerial(b *testing.B, stream []Sequence) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSerialWorker(b, benchCluster(b), stream)
	}
	b.StopTimer()
	reportStreamRate(b, len(stream))
}

func benchSched(b *testing.B, stream []Sequence) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runScheduler(b, benchCluster(b), stream)
	}
	b.StopTimer()
	reportStreamRate(b, len(stream))
}

func BenchmarkRequestsSerialWorkerHot(b *testing.B) {
	benchSerial(b, benchStream(benchQueryPool(benchStreamDistinct), benchStreamQueries))
}

func BenchmarkRequestsSchedulerHot(b *testing.B) {
	benchSched(b, benchStream(benchQueryPool(benchStreamDistinct), benchStreamQueries))
}

func BenchmarkRequestsSerialWorkerDistinct(b *testing.B) {
	benchSerial(b, benchStream(benchQueryPool(benchStreamQueries), benchStreamQueries))
}

func BenchmarkRequestsSchedulerDistinct(b *testing.B) {
	benchSched(b, benchStream(benchQueryPool(benchStreamQueries), benchStreamQueries))
}
