package heterosw

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitGoroutines polls until the live goroutine count drops to at most
// want, failing the test after a generous deadline. It is how the leak
// regression tests prove every streaming goroutine exits.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= want {
			return
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("%d goroutines still alive (want <= %d):\n%s", n, want, buf[:runtime.Stack(buf, true)])
}

// shortQueries builds n distinct short queries so streaming tests measure
// scheduler behaviour, not kernel time.
func shortQueries(n, length int) []Sequence {
	const letters = "ARNDCQEGHILKMFPSTWYV"
	out := make([]Sequence, n)
	seed := uint32(1)
	for i := range out {
		buf := make([]byte, length)
		for j := range buf {
			seed = seed*1664525 + 1013904223
			buf[j] = letters[seed%uint32(len(letters))]
		}
		out[i] = NewSequence(fmt.Sprintf("sq%d", i), string(buf))
	}
	return out
}

// Regression for the PR-1 goroutine leak: the old streamWorker blocked
// forever on its unconditional channel send when the Results consumer
// walked away. Now an abandoned consumer calls CloseNow (or cancels the
// stream context) and every goroutine — delivery and scheduler runners —
// exits.
func TestStreamAbandonedConsumerLeavesNoGoroutines(t *testing.T) {
	db, _ := tinyDB(t) // searches are microseconds: this test times the scheduler, not kernels
	queries := shortQueries(3*streamBuffer, 12)
	base := runtime.NumGoroutine()
	cl, err := NewCluster(db, ClusterOptions{Dist: "dynamic"})
	if err != nil {
		t.Fatal(err)
	}
	st := cl.NewStream(context.Background())
	// Far more submissions than the streamBuffer channel depth, so the
	// delivery goroutine is guaranteed to end up blocked on the Results
	// send — exactly where the PR-1 worker leaked forever.
	for i := 0; i < 3*streamBuffer; i++ {
		if err := st.Submit(Request{Query: queries[i]}); err != nil {
			t.Fatal(err)
		}
	}
	// Consume one result, then abandon the stream like a crashed client.
	sr := <-st.Results()
	if sr.Err != nil {
		t.Fatal(sr.Err)
	}
	st.CloseNow()
	if _, open := <-drain(st.Results()); open {
		t.Fatal("Results not closed after CloseNow")
	}
	if err := st.Submit(Request{Query: queries[0]}); err == nil {
		t.Fatal("Submit accepted after CloseNow")
	}
	waitGoroutines(t, base)
	// The cluster survives an aborted stream: a fresh session works.
	st2 := cl.NewStream(context.Background())
	if err := st2.Submit(Request{Query: queries[0]}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	sr2, open := <-st2.Results()
	if !open || sr2.Err != nil {
		t.Fatalf("fresh stream after abort: open=%v err=%v", open, sr2.Err)
	}
}

// A producer running arbitrarily far ahead of the consumer must not cause
// unbounded completed-result memory: the stream forwards at most its
// window to the scheduler until deliveries free slots (the PR-1 worker's
// memory bound, restored).
func TestStreamBacklogBoundsForwarding(t *testing.T) {
	db, _ := tinyDB(t)
	cl, err := NewCluster(db, ClusterOptions{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	st := cl.NewStream(context.Background())
	const n = 600
	queries := shortQueries(n, 12)
	for _, q := range queries {
		if err := st.Submit(Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	// Without consuming anything, let the scheduler quiesce: forwarded
	// submissions must stop at the window (plus the one the deliverer
	// holds), even though 600 are queued.
	deadline := time.Now().Add(10 * time.Second)
	var last int64 = -1
	for time.Now().Before(deadline) {
		cur := st.sched.Stats().Submitted
		if cur == last {
			break
		}
		last = cur
		time.Sleep(50 * time.Millisecond)
	}
	// The hard bound is the forwarding window, plus the streamBuffer
	// results the delivery goroutine can park in the Results channel,
	// plus the one delivery in its hand.
	if got, bound := st.sched.Stats().Submitted, int64(st.window+streamBuffer+1); got > bound {
		t.Fatalf("scheduler saw %d submissions with nothing consumed; bound is %d", got, bound)
	}
	// Draining still yields every result, in order.
	st.Close()
	next := 0
	for sr := range st.Results() {
		if sr.Err != nil || sr.Index != next {
			t.Fatalf("result %d (want %d): %v", sr.Index, next, sr.Err)
		}
		next++
	}
	if next != n {
		t.Fatalf("drained %d of %d", next, n)
	}
}

// drain consumes the channel until it closes, returning the final
// receive so callers can assert the closed state.
func drain(ch <-chan StreamResult) <-chan StreamResult {
	for range ch {
	}
	return ch
}

// Cancelling the context handed to NewStream must behave exactly like
// CloseNow: no stranded goroutines, Results closed.
func TestStreamContextCancelStopsWorkers(t *testing.T) {
	db, _ := tinyDB(t)
	queries := shortQueries(2*streamBuffer, 12)
	base := runtime.NumGoroutine()
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := cl.NewStream(ctx)
	for i := 0; i < 2*streamBuffer; i++ {
		if err := st.Submit(Request{Query: queries[i]}); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if _, open := <-drain(st.Results()); open {
		t.Fatal("Results not closed after context cancellation")
	}
	waitGoroutines(t, base)
}

// The acceptance pin: under concurrent in-flight queries, delivery must stay
// in submission order, results must be correct, and graceful shutdown must
// drain completely. Run under -race in CI.
func TestStreamOrderedDeliveryUnderConcurrency(t *testing.T) {
	db, _ := SyntheticSwissProt(0.0001, false)
	queries := shortQueries(12, 40)
	cl, err := NewCluster(db, ClusterOptions{
		Devices:     []DeviceKind{DeviceXeon, DevicePhi},
		Dist:        "dynamic",
		MaxInFlight: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	st := cl.NewStream(context.Background())
	want := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // producer and consumer run concurrently
		defer wg.Done()
		for i := 0; i < n; i++ {
			q := queries[i%len(queries)]
			want[i] = q.ID()
			if err := st.Submit(Request{Query: q}); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
		st.Close()
	}()
	next := 0
	var firstTop string
	for sr := range st.Results() {
		if sr.Err != nil {
			t.Fatalf("result %d: %v", sr.Index, sr.Err)
		}
		if sr.Index != next {
			t.Fatalf("result %d arrived out of order (want %d)", sr.Index, next)
		}
		if sr.Query.ID() != want[sr.Index] {
			t.Fatalf("result %d carries query %q, want %q", sr.Index, sr.Query.ID(), want[sr.Index])
		}
		if sr.Index%len(queries) == 0 { // repeated query: identical top hit
			if firstTop == "" {
				firstTop = sr.Result.Hits[0].ID
			} else if sr.Result.Hits[0].ID != firstTop {
				t.Fatalf("repeated query diverged: %q vs %q", sr.Result.Hits[0].ID, firstTop)
			}
		}
		next++
	}
	wg.Wait()
	if next != n {
		t.Fatalf("drained %d of %d results", next, n)
	}
}

// Aligned searches through NewStream: mixed aligned and score-only
// submissions of the same queries must deliver in submission order with
// the right decorations (an aligned result and a score-only result of the
// same residues must never alias through the shared cache), and every
// goroutine must exit once the stream drains. Run under -race in CI.
func TestStreamAlignedOrderedNoLeak(t *testing.T) {
	db, _ := SyntheticSwissProt(0.0001, false) // 54 sequences: E-value fit viable
	queries := shortQueries(6, 30)
	base := runtime.NumGoroutine()
	cl, err := NewCluster(db, ClusterOptions{
		Dist:        "dynamic",
		MaxInFlight: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := cl.NewStream(context.Background())
	const n = 24
	rep := ReportOptions{Alignments: true, EValues: true, TopK: 3}
	for i := 0; i < n; i++ {
		q := queries[i%len(queries)]
		var err error
		if i%2 == 0 {
			err = st.Submit(Request{Query: q, Report: rep}) // aligned
		} else {
			err = st.Submit(Request{Query: q}) // score-only, same residues as i-1
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	next := 0
	for sr := range st.Results() {
		if sr.Err != nil {
			t.Fatalf("result %d: %v", sr.Index, sr.Err)
		}
		if sr.Index != next {
			t.Fatalf("result %d arrived out of order (want %d)", sr.Index, next)
		}
		if sr.Index%2 == 0 {
			if len(sr.Result.Hits) != 3 || sr.Result.Significance == nil {
				t.Fatalf("aligned result %d: %d hits, significance %v",
					sr.Index, len(sr.Result.Hits), sr.Result.Significance)
			}
			for _, h := range sr.Result.Hits {
				if h.Alignment == nil || h.Alignment.CIGAR == "" || h.Significance == nil {
					t.Fatalf("aligned result %d hit %s missing decorations", sr.Index, h.ID)
				}
			}
		} else {
			if sr.Result.Significance != nil {
				t.Fatalf("score-only result %d carries a significance model (cache aliasing)", sr.Index)
			}
			for _, h := range sr.Result.Hits {
				if h.Alignment != nil || h.Significance != nil {
					t.Fatalf("score-only result %d hit %s is decorated (cache aliasing)", sr.Index, h.ID)
				}
			}
		}
		next++
	}
	if next != n {
		t.Fatalf("drained %d of %d results", next, n)
	}
	waitGoroutines(t, base)
}

// Repeated queries must be served from the cluster's LRU cache, shared
// between the scheduled entry points.
func TestSchedulerCacheServesRepeats(t *testing.T) {
	db, _ := SyntheticSwissProt(0.0002, false)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := shortQueries(1, 80)[0]
	direct, err := cl.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cl.SearchScheduled(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.SearchScheduled(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Scores {
		if first.Scores[i] != direct.Scores[i] || second.Scores[i] != direct.Scores[i] {
			t.Fatalf("scheduled score %d diverged from direct search", i)
		}
	}
	cs := cl.CacheStats()
	if cs.Hits < 1 || cs.Entries < 1 {
		t.Fatalf("cache did not serve the repeat: %+v", cs)
	}
	st := cl.SchedulerStats()
	if st.Submitted != 2 || st.CacheHits < 1 {
		t.Fatalf("scheduler stats %+v", st)
	}
	// A stream over the same cluster shares the cache.
	sess := cl.NewStream(context.Background())
	if err := sess.Submit(Request{Query: q}); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	sr := <-sess.Results()
	if sr.Err != nil {
		t.Fatal(sr.Err)
	}
	if sr.Result.Hits[0].ID != direct.Hits[0].ID {
		t.Fatalf("stream cache hit top %q != %q", sr.Result.Hits[0].ID, direct.Hits[0].ID)
	}
	if h2 := cl.CacheStats().Hits; h2 <= cs.Hits {
		t.Fatalf("stream did not hit the shared cache (hits %d -> %d)", cs.Hits, h2)
	}
}

// A caching-disabled cluster must recompute every query and never share.
func TestCacheDisabled(t *testing.T) {
	db, _ := SyntheticSwissProt(0.0002, false)
	queries := shortQueries(1, 60)
	cl, err := NewCluster(db, ClusterOptions{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.SearchScheduled(context.Background(), queries[0]); err != nil {
			t.Fatal(err)
		}
	}
	if cs := cl.CacheStats(); cs.Hits != 0 || cs.Entries != 0 {
		t.Fatalf("disabled cache recorded %+v", cs)
	}
}

// SearchScheduled's context bounds the caller's wait; a cancelled context
// returns promptly while the computation (if started) completes for the
// cache.
func TestSearchScheduledContextCancel(t *testing.T) {
	db, _ := SyntheticSwissProt(0.0002, false)
	queries := shortQueries(1, 60)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.SearchScheduled(ctx, queries[0]); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cluster remains serviceable afterwards.
	if _, err := cl.SearchScheduled(context.Background(), queries[0]); err != nil {
		t.Fatal(err)
	}
}

// Cluster.CloseNow tears down the serving scheduler: every scheduled door
// answers ErrClusterClosed, while the direct Search and an independent
// stream stay usable.
func TestClusterCloseNow(t *testing.T) {
	db, _ := SyntheticSwissProt(0.0002, false)
	queries := shortQueries(1, 60)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Query: queries[0]}
	if _, err := cl.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	cl.CloseNow()
	if _, err := cl.Do(ctx, req); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("Do after CloseNow: err = %v, want ErrClusterClosed", err)
	}
	if _, err := cl.DoBatch(ctx, []Request{req}); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("DoBatch after CloseNow: err = %v, want ErrClusterClosed", err)
	}
	if _, err := cl.SearchScheduled(ctx, queries[0]); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("SearchScheduled after CloseNow: err = %v, want ErrClusterClosed", err)
	}
	if _, err := cl.Search(queries[0]); err != nil {
		t.Fatalf("direct Search broken after CloseNow: %v", err)
	}
	st := cl.NewStream(ctx)
	if err := st.Submit(req); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if sr := <-st.Results(); sr.Err != nil {
		t.Fatalf("stream after CloseNow: %v", sr.Err)
	}
}

// Totals must reflect work arriving over every entry point.
func TestClusterTotals(t *testing.T) {
	db, _ := SyntheticSwissProt(0.0002, false)
	queries := shortQueries(3, 60)
	cl, err := NewCluster(db, ClusterOptions{Devices: []DeviceKind{DeviceXeon, DevicePhi}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Search(queries[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DoBatch(context.Background(), requests(queries[1:3])); err != nil {
		t.Fatal(err)
	}
	n, per := cl.Totals()
	if n != 3 {
		t.Fatalf("%d queries recorded, want 3", n)
	}
	if len(per) != 1 || per[0].Device != DeviceHost || per[0].Grants != 3 {
		t.Fatalf("backend totals %+v", per)
	}
	if want := 3 * db.Residues(); per[0].Residues != want {
		t.Fatalf("recorded %d residues, want %d", per[0].Residues, want)
	}
}
