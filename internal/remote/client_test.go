package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heterosw/internal/core"
)

// fastOptions sets a 5s attempt timeout and a 1ms backoff where opt
// leaves them unset.
func fastOptions(opt Options) Options {
	if opt.Timeout == 0 {
		opt.Timeout = 5 * time.Second
	}
	if opt.Backoff == 0 {
		opt.Backoff = time.Millisecond
	}
	return opt
}

func fastClient(opt Options) *Client { return NewClient(fastOptions(opt)) }

func searchReq() *ShardSearchRequest {
	return &ShardSearchRequest{Shard: "swdb:deadbeef-3-10", ID: "q", Queries: [][]byte{{1, 2, 3}}}
}

// answerBody is a node's answer to searchReq: the echoed key, the packed
// hits and below counts, and cells.
func answerBody(hits []core.ShardHit, below []int, cells int64) string {
	body, err := json.Marshal(ShardSearchResponse{Shard: searchReq().Shard, Hits: hits, Below: below, Cells: cells})
	if err != nil {
		panic(err)
	}
	return string(body)
}

// nodeBody is a node's every-hit answer to searchReq over a shard of no
// residues: every subject a hit, scoring as given.
func nodeBody(scores ...int32) string {
	hits := make([]core.ShardHit, len(scores))
	for i, s := range scores {
		hits[i] = core.ShardHit{Index: int32(i), Score: s}
	}
	return answerBody(hits, nil, 0)
}

// hitScores lists an answer's hit scores in index order.
func hitScores(r *ShardSearchResponse) []int32 {
	out := make([]int32, len(r.Hits))
	for i, h := range r.Hits {
		out[i] = h.Score
	}
	return out
}

// TestRetry503ThenSuccess pins the core retry contract: a 503 answer is
// retried (with backoff) and the eventual success is returned.
func TestRetry503ThenSuccess(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"error":"draining"}`)
			return
		}
		fmt.Fprint(w, nodeBody(7, 8, 9))
	}))
	defer srv.Close()

	c := fastClient(Options{Retries: 2})
	resp, err := c.ShardSearch(context.Background(), []string{srv.URL}, searchReq(), 3, 0, "")
	if err != nil {
		t.Fatalf("ShardSearch: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (503 then success)", got)
	}
	if got := hitScores(resp); len(got) != 3 || got[0] != 7 {
		t.Fatalf("unexpected scores %v", got)
	}
}

// TestShardSearchReadsOneBuffer pins what reading a node answer costs when
// it declares its Content-Length, as every node answer does: one buffer of
// that size. What one ShardSearch allocates beyond decoding its body and
// beyond the fixed cost of a round trip (both measured here, the latter
// with a 3-subject answer) is the read, and for the every-hit answer over
// 8,000 subjects, the largest a node sends, it stays under twice the body;
// io.ReadAll's growing buffer over the same bytes allocates about four
// times it.
func TestShardSearchReadsOneBuffer(t *testing.T) {
	const residues = 1000
	req := searchReq()
	allocated := func(f func()) int64 {
		f() // the connection, and anything else made once
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	// beyondDecode serves an n-subject every-hit answer with its
	// Content-Length and returns the body's size and what a ShardSearch of
	// it allocates beyond decoding the same bytes.
	beyondDecode := func(n int) (int64, int64) {
		scores := make([]int32, n)
		for i := range scores {
			scores[i] = int32(i % 100)
		}
		ans := core.SelectAnswer(scores, 0)
		body, err := json.Marshal(ShardSearchResponse{Shard: req.Shard, Hits: ans.Hits, Below: ans.Below, Cells: int64(len(req.Queries[0])) * residues})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			_, _ = w.Write(body)
		}))
		defer srv.Close()
		c := fastClient(Options{})
		search := allocated(func() {
			if _, err := c.ShardSearch(context.Background(), []string{srv.URL}, req, n, residues, ""); err != nil {
				t.Fatal(err)
			}
		})
		decode := allocated(func() {
			var r ShardSearchResponse
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatal(err)
			}
		})
		return int64(len(body)), search - decode
	}
	_, fixed := beyondDecode(3)
	size, total := beyondDecode(8000)
	read := total - fixed
	t.Logf("%d B answer: %d B read, %d B a round trip's fixed cost", size, read, fixed)
	if read >= 2*size {
		t.Fatalf("reading a %d B answer allocates %d B, want under %d", size, read, 2*size)
	}
}

// TestShardSearchDecodesAnswer pins the full-body decode of /shard/search
// answers. A body with the echoed key and packed hits and below counts is
// decoded, fields it does not know (an old node's scores, threads,
// sim_seconds) ignored. Number-array hits, a body with no shard key, a
// truncated varint and bad base64 fail the replica, never pass as hits.
func TestShardSearchDecodesAnswer(t *testing.T) {
	key := `"shard":"` + searchReq().Shard + `",`
	const rest = `"below":"","cells":90,"scores":"BwgJ","threads":32,"sim_seconds":0.25,"wall_seconds":0.5,"overflows8":2,"overflow_cells":60}`
	want := ShardSearchResponse{
		Shard: searchReq().Shard, Hits: HitList{{Index: 0, Score: 7}, {Index: 1, Score: 8}, {Index: 2, Score: 9}},
		Below: Counts{}, Cells: 90, WallSeconds: 0.5, Overflows8: 2, OverflowCells: 60,
	}
	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{"packed", key + `"hits":"AAcAAQgAAQkA",`, ""}, // the varint triples (0,7,0) (1,8,0) (1,9,0)
		{"array", key + `"hits":[0,7,1,8,1,9],`, "not a base64 string"},
		{"no key", `"hits":"AAcAAQgAAQkA",`, `answer for shard ""`},
		{"truncated varint", key + `"hits":"AAcBCAGA",`, "truncated varint"},
		{"bad base64", key + `"hits":"AA!BCAEJ",`, "illegal base64"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprint(w, `{`+tc.body+rest)
			}))
			defer srv.Close()

			resp, err := fastClient(Options{}).ShardSearch(context.Background(), []string{srv.URL}, searchReq(), 3, 30, "")
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ShardSearch = %+v, %v; want an error naming %q", resp, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ShardSearch: %v", err)
			}
			if !reflect.DeepEqual(*resp, want) {
				t.Fatalf("decoded %+v, want %+v", *resp, want)
			}
		})
	}
}

// TestNoRetryOnTerminalStatus pins the other half of the contract: 400,
// 404 and 500 answers are terminal — exactly one request reaches the
// node, and the status comes back in a StatusError.
func TestNoRetryOnTerminalStatus(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusNotFound, http.StatusInternalServerError} {
		t.Run(fmt.Sprint(status), func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.WriteHeader(status)
				fmt.Fprintf(w, `{"error":"nope"}`)
			}))
			defer srv.Close()

			c := fastClient(Options{Retries: 3})
			_, err := c.ShardSearch(context.Background(), []string{srv.URL}, searchReq(), 3, 0, "")
			if err == nil {
				t.Fatal("want error")
			}
			var se *StatusError
			if !errors.As(err, &se) || se.Code != status {
				t.Fatalf("want StatusError %d, got %v", status, err)
			}
			if got := calls.Load(); got != 1 {
				t.Fatalf("server saw %d calls, want exactly 1 for status %d", got, status)
			}
		})
	}
}

// TestRetriesExhausted pins that a persistently-503 node fails after
// exactly 1+Retries attempts with the last failure wrapped.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := fastClient(Options{Retries: 2})
	_, err := c.ShardSearch(context.Background(), []string{srv.URL}, searchReq(), 3, 0, "")
	if err == nil {
		t.Fatal("want error")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("want wrapped 503, got %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", got)
	}
}

// TestRetriesRotateReplicas pins that attempt a routes to urls[a mod n]:
// a dead primary with a healthy second replica succeeds on the first
// retry.
func TestRetriesRotateReplicas(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, nodeBody(1))
	}))
	defer good.Close()
	dead := httptest.NewServer(http.HandlerFunc(nil))
	dead.Close() // connection refused from now on

	c := fastClient(Options{Retries: 1})
	resp, err := c.ShardSearch(context.Background(), []string{dead.URL, good.URL}, searchReq(), 1, 0, "")
	if err != nil {
		t.Fatalf("ShardSearch: %v", err)
	}
	if got := hitScores(resp); len(got) != 1 {
		t.Fatalf("unexpected scores %v", got)
	}
}

// TestBackoffHonoursContext pins that a caller context cancelled during
// the backoff sleep aborts the retry loop promptly with the context's
// error.
func TestBackoffHonoursContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	c := fastClient(Options{Retries: 5, Backoff: time.Hour})
	start := time.Now()
	_, err := c.ShardSearch(ctx, []string{srv.URL}, searchReq(), 3, 0, "")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v to take effect", elapsed)
	}
}

// TestHedgeWinnerCancelsLoser pins the hedging contract end to end: a
// slow primary trips the hedge delay, the replica's answer wins, and the
// primary's in-flight request is cancelled (observed server-side via its
// request context) rather than left running.
func TestHedgeWinnerCancelsLoser(t *testing.T) {
	primaryCancelled := make(chan struct{})
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: net/http only watches for client
		// disconnects once the request body is consumed, exactly as the
		// real node handlers do by decoding it.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // stall until the winner cancels us
		close(primaryCancelled)
	}))
	defer primary.Close()
	hedge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, nodeBody(42))
	}))
	defer hedge.Close()

	c := fastClient(Options{Retries: -1, HedgeDelay: 5 * time.Millisecond})
	resp, err := c.ShardSearch(context.Background(), []string{primary.URL, hedge.URL}, searchReq(), 1, 0, "")
	if err != nil {
		t.Fatalf("ShardSearch: %v", err)
	}
	if got := hitScores(resp); len(got) != 1 || got[0] != 42 {
		t.Fatalf("want the hedge replica's answer, got %v", got)
	}
	select {
	case <-primaryCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing primary request was never cancelled")
	}
}

// TestHedgePromotesOnPrimaryFailure pins that a primary failing before
// the hedge timer fires launches the hedge immediately instead of
// sitting out the delay.
func TestHedgePromotesOnPrimaryFailure(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(nil))
	dead.Close()
	hedge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, nodeBody(5))
	}))
	defer hedge.Close()

	c := fastClient(Options{Retries: -1, HedgeDelay: time.Hour})
	start := time.Now()
	resp, err := c.ShardSearch(context.Background(), []string{dead.URL, hedge.URL}, searchReq(), 1, 0, "")
	if err != nil {
		t.Fatalf("ShardSearch: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("promotion waited %v; should not sit out the hedge delay", elapsed)
	}
	if got := hitScores(resp); len(got) != 1 || got[0] != 5 {
		t.Fatalf("unexpected scores %v", got)
	}
}

// TestHedgeBothFail pins that a hedged attempt with both requests failed
// reports both failures, and that the retry loop still classifies it.
func TestHedgeBothFail(t *testing.T) {
	a := httptest.NewServer(http.HandlerFunc(nil))
	a.Close()
	b := httptest.NewServer(http.HandlerFunc(nil))
	b.Close()

	c := fastClient(Options{Retries: -1, HedgeDelay: time.Millisecond})
	_, err := c.ShardSearch(context.Background(), []string{a.URL, b.URL}, searchReq(), 1, 0, "")
	if err == nil {
		t.Fatal("want error when both replicas are down")
	}
}

// TestRetryableClassification pins the status classification the whole
// retry/hedging policy keys off.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&StatusError{Code: http.StatusServiceUnavailable}, true},
		{&StatusError{Code: http.StatusInternalServerError}, false},
		{&StatusError{Code: http.StatusBadRequest}, false},
		{&StatusError{Code: http.StatusNotFound}, false},
		{&StatusError{Code: http.StatusRequestTimeout}, false},
		{fmt.Errorf("wrapped: %w", &StatusError{Code: http.StatusServiceUnavailable}), true},
		{fmt.Errorf("wrapped: %w", &StatusError{Code: http.StatusBadRequest}), false},
		{errors.New("connection refused"), true}, // transport-level: retryable
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %t, want %t", tc.err, got, tc.want)
		}
	}
}

// TestNoReplicas pins the degenerate call.
func TestNoReplicas(t *testing.T) {
	c := fastClient(Options{})
	if _, err := c.ShardSearch(context.Background(), nil, searchReq(), 3, 0, ""); err == nil {
		t.Fatal("want error for zero replica URLs")
	}
}

// afterFuncCtx is a never-cancelled context that counts the children
// registered on it: context.WithCancel and WithTimeout register through
// AfterFunc on a parent that has one (and is not itself a context-package
// cancel context), and call the returned stop once the child is
// cancelled. live is the registrations never stopped.
type afterFuncCtx struct {
	done chan struct{}
	mu   sync.Mutex
	//sw:guardedBy(mu)
	live int
}

func (c *afterFuncCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *afterFuncCtx) Done() <-chan struct{}       { return c.done }
func (c *afterFuncCtx) Err() error                  { return nil }
func (c *afterFuncCtx) Value(any) any               { return nil }

func (c *afterFuncCtx) AfterFunc(func()) func() bool {
	c.mu.Lock()
	c.live++
	c.mu.Unlock()
	var once sync.Once
	return func() bool {
		stopped := false
		once.Do(func() {
			c.mu.Lock()
			c.live--
			c.mu.Unlock()
			stopped = true
		})
		return stopped
	}
}

func (c *afterFuncCtx) Live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// TestAttemptReleasesItsContext pins that a finished request leaves no
// child context registered on its caller's context. The coordinator's
// callers pass the scheduler's lifetime context, so a leaked child there
// lives until the cluster closes.
func TestAttemptReleasesItsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, nodeBody(7, 8, 9))
	}))
	defer srv.Close()

	for _, timeout := range []time.Duration{0, -1} { // default 10s, none
		parent := &afterFuncCtx{done: make(chan struct{})}
		c := NewClient(Options{Timeout: timeout})
		const n = 20
		for i := 0; i < n; i++ {
			if _, err := c.ShardSearch(parent, []string{srv.URL}, searchReq(), 3, 0, ""); err != nil {
				t.Fatalf("Timeout %v: ShardSearch %d: %v", timeout, i, err)
			}
		}
		if live := parent.Live(); live != 0 {
			t.Fatalf("Timeout %v: %d child contexts still registered on the caller's context after %d searches, want 0",
				timeout, live, n)
		}
	}
}
