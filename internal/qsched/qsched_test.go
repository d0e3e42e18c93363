package qsched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// echo is a run function that maps each query string to "R:"+q.
func echo(ctx context.Context, q string) (string, error) { return "R:" + q, nil }

func waitTicket(t *testing.T, tk *ticket[string]) (string, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := tk.Wait(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("ticket did not resolve in time")
	}
	return v, err
}

func TestSubmitResolvesEachQuery(t *testing.T) {
	s := New(echo, nil, nil, 0)
	defer s.CloseNow()
	var tickets []*ticket[string]
	for i := 0; i < 10; i++ {
		tk, err := s.submit(fmt.Sprintf("q%d", i))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		v, err := waitTicket(t, tk)
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if want := fmt.Sprintf("R:q%d", i); v != want {
			t.Fatalf("ticket %d resolved to %q, want %q", i, v, want)
		}
	}
}

// A ticket resolves as soon as its own query is done: a query that is
// still running holds no other ticket back.
func TestTicketResolvesWithoutNeighbours(t *testing.T) {
	gateX, gateC := make(chan struct{}), make(chan struct{})
	startedX, startedC := make(chan struct{}), make(chan struct{})
	run := func(ctx context.Context, q string) (string, error) {
		switch q {
		case "X":
			close(startedX)
			<-gateX
		case "C":
			close(startedC)
			<-gateC
		}
		return "R:" + q, nil
	}
	s := New(run, nil, nil, 3)
	defer s.CloseNow()
	defer close(gateX)
	defer close(gateC)

	x, err := s.submit("X")
	if err != nil {
		t.Fatal(err)
	}
	<-startedX // X holds a slot
	b, err := s.submit("B")
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.submit("C")
	if err != nil {
		t.Fatal(err)
	}
	<-startedC // C is blocked on its own gate
	if v, err := waitTicket(t, b); err != nil || v != "R:B" {
		t.Fatalf("B: %q, %v", v, err)
	}
	for name, tk := range map[string]*ticket[string]{"X": x, "C": c} {
		select {
		case <-tk.done:
			t.Fatalf("%s resolved while gated", name)
		default:
		}
	}
}

// At most MaxInFlight queries run at once, and a backlog runs in
// submission order.
func TestInFlightBoundAndOrder(t *testing.T) {
	for _, limit := range []int{1, 2} {
		var mu sync.Mutex
		var ran []string
		running, peak := 0, 0
		run := func(ctx context.Context, q string) (string, error) {
			mu.Lock()
			running++
			peak = max(peak, running)
			ran = append(ran, q)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
			return "R:" + q, nil
		}
		s := New(run, nil, nil, limit)
		var tks []*ticket[string]
		for i := 0; i < 12; i++ {
			tk, err := s.submit(fmt.Sprintf("q%02d", i))
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		for _, tk := range tks {
			waitTicket(t, tk)
		}
		s.CloseNow()
		mu.Lock()
		if peak > limit {
			t.Errorf("MaxInFlight %d: %d queries ran at once", limit, peak)
		}
		if limit == 1 && !sort.StringsAreSorted(ran) {
			t.Errorf("MaxInFlight 1 ran the backlog out of order: %v", ran)
		}
		mu.Unlock()
	}
}

func TestInFlightJoinAndCache(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var calls int64
	var mu sync.Mutex
	run := func(ctx context.Context, q string) (string, error) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			close(started)
			<-gate
		}
		return "R:" + q, nil
	}
	key := func(q string) (string, bool) { return q, true }
	cache := NewCache[string](8)
	s := New(run, key, cache, 1)
	defer s.CloseNow()

	a, err := s.submit("same")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	b, err := s.submit("same") // joins the in-flight ticket
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical in-flight query did not share its ticket")
	}
	close(gate)
	if v, err := waitTicket(t, a); err != nil || v != "R:same" {
		t.Fatalf("got %q, %v", v, err)
	}
	// Now cached: a third submission resolves synchronously.
	c, err := s.submit("same")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.done:
	default:
		t.Fatal("cached submission did not resolve synchronously")
	}
	if v, _ := waitTicket(t, c); v != "R:same" {
		t.Fatalf("cached value %q", v)
	}
	// Both earlier submissions looked in the cache and missed; the join
	// does not make the second one a hit.
	st := s.Stats()
	if st.Joined != 1 || st.CacheHits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// A failing query fails only its own ticket: the queries around it still
// succeed.
func TestFailureIsolation(t *testing.T) {
	poison := errors.New("poisoned query")
	run := func(ctx context.Context, q string) (string, error) {
		if strings.Contains(q, "bad") {
			return "", poison
		}
		return "R:" + q, nil
	}
	s := New(run, nil, nil, 1)
	defer s.CloseNow()
	tks := make([]*ticket[string], 0, 3)
	for _, q := range []string{"ok1", "bad", "ok2"} {
		tk, err := s.submit(q)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	if v, err := waitTicket(t, tks[0]); err != nil || v != "R:ok1" {
		t.Fatalf("ok1: %q, %v", v, err)
	}
	if _, err := waitTicket(t, tks[1]); !errors.Is(err, poison) {
		t.Fatalf("bad: err = %v, want poison", err)
	}
	if v, err := waitTicket(t, tks[2]); err != nil || v != "R:ok2" {
		t.Fatalf("ok2: %q, %v", v, err)
	}
}

func TestCloseNowCancelsQueuedAndInFlight(t *testing.T) {
	started := make(chan struct{})
	run := func(ctx context.Context, q string) (string, error) {
		close(started)
		<-ctx.Done() // a long search aborted by cancellation
		return "", ctx.Err()
	}
	s := New(run, nil, nil, 1)
	inflight, err := s.submit("slow")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.submit("queued")
	if err != nil {
		t.Fatal(err)
	}
	s.CloseNow()
	if _, err := waitTicket(t, inflight); !errors.Is(err, context.Canceled) {
		t.Fatalf("in-flight err = %v", err)
	}
	if _, err := waitTicket(t, queued); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued err = %v", err)
	}
	if _, err := s.Do(context.Background(), "late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after CloseNow: %v", err)
	}
}

// The scheduler must not keep goroutines alive while idle: every runner
// exits once the queue drains.
func TestNoGoroutinesWhileIdle(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(echo, nil, nil, 0)
	for round := 0; round < 3; round++ {
		var tks []*ticket[string]
		for i := 0; i < 20; i++ {
			tk, err := s.submit(fmt.Sprintf("r%dq%d", round, i))
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		for _, tk := range tks {
			waitTicket(t, tk)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+1 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("idle scheduler holds goroutines: %d, baseline %d", runtime.NumGoroutine(), base)
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache[int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Fatalf("c = %d, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
	if NewCache[int](0) != nil {
		t.Fatal("size 0 cache should be nil (disabled)")
	}
	var nilCache *Cache[int]
	if nilCache.Len() != 0 {
		t.Fatal("nil cache accessors not safe")
	}
}

// Hammer the scheduler from many goroutines under the race detector.
func TestConcurrentSubmitHammer(t *testing.T) {
	key := func(q string) (string, bool) { return q, true }
	s := New(echo, key, NewCache[string](32), 4)
	defer s.CloseNow()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := fmt.Sprintf("q%d", (g*13+i)%20) // overlapping keys
				v, err := s.Do(context.Background(), q)
				if err != nil {
					t.Errorf("Do(%q): %v", q, err)
					return
				}
				if v != "R:"+q {
					t.Errorf("Do(%q) = %q", q, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestResolvingKeyRunsOnce submits each key from several goroutines in
// a tight loop until the cache holds it, so submissions keep arriving
// while the key's one execution resolves. A resolving key must stay
// findable, in the pending map or the cache, at every instant: each key
// runs exactly once.
func TestResolvingKeyRunsOnce(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	run := func(ctx context.Context, q string) (string, error) {
		mu.Lock()
		runs[q]++
		mu.Unlock()
		return "R:" + q, nil
	}
	key := func(q string) (string, bool) { return q, true }
	s := New(run, key, NewCache[string](64), 4)
	defer s.CloseNow()

	const keys, submitters = 300, 4
	for k := 0; k < keys; k++ {
		q := fmt.Sprintf("q%d", k)
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tickets := map[*ticket[string]]bool{}
				for {
					if _, cached := s.cache.Get(q); cached {
						break
					}
					tk, err := s.submit(q)
					if err != nil {
						t.Errorf("submit(%q): %v", q, err)
						return
					}
					tickets[tk] = true
				}
				for tk := range tickets {
					if v, err := tk.Wait(context.Background()); err != nil || v != "R:"+q {
						t.Errorf("%q resolved %q, %v", q, v, err)
					}
				}
			}()
		}
		wg.Wait()
	}
	mu.Lock()
	defer mu.Unlock()
	for q, n := range runs {
		if n != 1 {
			t.Errorf("%s ran %d times, want 1", q, n)
		}
	}
}
