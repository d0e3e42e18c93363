package heterosw

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitGoroutines polls until the live goroutine count drops to at most
// want, failing the test after a generous deadline. It is how the leak
// regression tests prove every caller and scheduler goroutine exits.
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

// shortQueries builds n distinct short queries so scheduler tests measure
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

// Teardown under load: CloseNow while a backlog of concurrent Do calls is
// queued and in flight resolves every call, with a result or with
// ErrClusterClosed, and every goroutine — callers and scheduler runners —
// exits.
func TestDoCloseNowLeavesNoGoroutines(t *testing.T) {
	db, _ := tinyDB(t) // searches are microseconds: this test times the scheduler, not kernels
	const n = 3 * 64
	queries := shortQueries(n, 12)
	base := runtime.NumGoroutine()
	cl, err := NewCluster(db, ClusterOptions{Dist: "dynamic"})
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan struct{})
	var once sync.Once
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res *ClusterResult
			res, errs[i] = cl.Do(context.Background(), Request{Query: q})
			if errs[i] == nil && res == nil {
				errs[i] = errors.New("nil result without an error")
			}
			once.Do(func() { close(first) })
		}()
	}
	<-first
	cl.CloseNow()
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrClusterClosed) {
			t.Fatalf("Do %d: %v, want a result or ErrClusterClosed", i, err)
		}
	}
	waitGoroutines(t, base)
}

// Mixed aligned and score-only concurrent Do calls on the same residues
// get the right decorations — an aligned result and a score-only result of
// the same residues never alias through the shared cache or an in-flight
// join — and every goroutine exits once they resolve. Run under -race in
// CI.
func TestDoMixedReportsNoAliasNoLeak(t *testing.T) {
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
	const n = 24
	rep := ReportOptions{Alignments: true, EValues: true, TopK: 3}
	results := make([]*ClusterResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		req := Request{Query: queries[(i/2)%len(queries)]} // i and i^1 share residues
		if i%2 == 0 {
			req.Report = rep // aligned; odd i stay score-only
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = cl.Do(context.Background(), req)
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("result %d: %v", i, errs[i])
		}
		if i%2 == 0 {
			if len(res.Hits) != 3 || res.Significance == nil {
				t.Fatalf("aligned result %d: %d hits, significance %v", i, len(res.Hits), res.Significance)
			}
			for _, h := range res.Hits {
				if h.Alignment == nil || h.Alignment.CIGAR == "" || h.Significance == nil {
					t.Fatalf("aligned result %d hit %s missing decorations", i, h.ID)
				}
			}
		} else {
			if res.Significance != nil {
				t.Fatalf("score-only result %d carries a significance model (cache aliasing)", i)
			}
			for _, h := range res.Hits {
				if h.Alignment != nil || h.Significance != nil {
					t.Fatalf("score-only result %d hit %s is decorated (cache aliasing)", i, h.ID)
				}
			}
		}
	}
	waitGoroutines(t, base)
}

// Every scheduled door shares the cluster's one scheduler: one query
// arriving concurrently through Do, DoBatch and POST /search executes
// once, and all three count in SchedulerStats.
func TestDoorsShareOneScheduler(t *testing.T) {
	db, _ := SyntheticSwissProt(0.0002, false)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(cl))
	defer func() { ts.Close(); cl.CloseNow() }()
	q := shortQueries(1, 80)[0]
	// The K an unset HTTP top_k resolves to, so all three doors ask for
	// the same request.
	req := Request{Query: q, Report: ReportOptions{TopK: 10}}

	var (
		wg       sync.WaitGroup
		start    = make(chan struct{})
		done     *ClusterResult
		batch    []*ClusterResult
		doErr    error
		batchErr error
		httpErr  error
		status   int
	)
	wg.Add(3)
	go func() {
		defer wg.Done()
		<-start
		done, doErr = cl.Do(context.Background(), req)
	}()
	go func() {
		defer wg.Done()
		<-start
		batch, batchErr = cl.DoBatch(context.Background(), []Request{req})
	}()
	go func() {
		defer wg.Done()
		<-start
		resp, err := http.Post(ts.URL+"/search", "application/json",
			strings.NewReader(fmt.Sprintf(`{"residues":%q}`, q.String())))
		if err != nil {
			httpErr = err
			return
		}
		resp.Body.Close()
		status = resp.StatusCode
	}()
	close(start)
	wg.Wait()
	if doErr != nil || batchErr != nil || httpErr != nil || status != http.StatusOK {
		t.Fatalf("Do: %v, DoBatch: %v, POST /search: %v, status %d", doErr, batchErr, httpErr, status)
	}
	if batch[0] != done {
		t.Error("Do and DoBatch did not share one result")
	}
	if n, _ := cl.Totals(); n != 1 {
		t.Errorf("one query through three doors executed %d times", n)
	}
	if st := cl.SchedulerStats(); st.Submitted != 3 || st.Joined+st.CacheHits != 2 {
		t.Errorf("scheduler stats %+v, want 3 submitted, 2 joined or cached", st)
	}
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

// Cluster.CloseNow tears down the cluster's scheduler: every scheduled
// door answers ErrClusterClosed, while the direct Search stays usable.
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
