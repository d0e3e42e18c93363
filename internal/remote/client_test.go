package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func fastClient(opt Options) *Client {
	if opt.Timeout == 0 {
		opt.Timeout = 5 * time.Second
	}
	if opt.Backoff == 0 {
		opt.Backoff = time.Millisecond
	}
	return NewClient(opt)
}

func searchReq() *ShardSearchRequest {
	return &ShardSearchRequest{Shard: "swdb:deadbeef-3-10", ID: "q", Codes: []byte{1, 2, 3}}
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
		fmt.Fprintf(w, `{"scores":[7,8,9]}`)
	}))
	defer srv.Close()

	c := fastClient(Options{Retries: 2})
	resp, err := c.ShardSearch(context.Background(), []string{srv.URL}, searchReq())
	if err != nil {
		t.Fatalf("ShardSearch: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (503 then success)", got)
	}
	if len(resp.Scores) != 3 || resp.Scores[0] != 7 {
		t.Fatalf("unexpected scores %v", resp.Scores)
	}
}

// TestShardSearchAcceptsOlderNodeBody pins the rolling-upgrade direction
// coordinator first: a node still answering the body that carried the
// device model's fields (threads, sim_seconds) is decoded, those fields
// ignored.
func TestShardSearchAcceptsOlderNodeBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"scores":[7,8,9],"cells":90,"threads":32,"sim_seconds":0.25,`+
			`"wall_seconds":0.5,"overflows8":2,"overflow_cells":60}`)
	}))
	defer srv.Close()

	resp, err := fastClient(Options{}).ShardSearch(context.Background(), []string{srv.URL}, searchReq())
	if err != nil {
		t.Fatalf("ShardSearch: %v", err)
	}
	want := ShardSearchResponse{Scores: []int32{7, 8, 9}, Cells: 90, WallSeconds: 0.5, Overflows8: 2, OverflowCells: 60}
	if !reflect.DeepEqual(*resp, want) {
		t.Fatalf("decoded %+v, want %+v", *resp, want)
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
			_, err := c.ShardSearch(context.Background(), []string{srv.URL}, searchReq())
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
	_, err := c.ShardSearch(context.Background(), []string{srv.URL}, searchReq())
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
		fmt.Fprintf(w, `{"scores":[1]}`)
	}))
	defer good.Close()
	dead := httptest.NewServer(http.HandlerFunc(nil))
	dead.Close() // connection refused from now on

	c := fastClient(Options{Retries: 1})
	resp, err := c.ShardSearch(context.Background(), []string{dead.URL, good.URL}, searchReq())
	if err != nil {
		t.Fatalf("ShardSearch: %v", err)
	}
	if len(resp.Scores) != 1 {
		t.Fatalf("unexpected scores %v", resp.Scores)
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
	_, err := c.ShardSearch(ctx, []string{srv.URL}, searchReq())
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
		fmt.Fprintf(w, `{"scores":[42]}`)
	}))
	defer hedge.Close()

	c := fastClient(Options{Retries: -1, HedgeDelay: 5 * time.Millisecond})
	resp, err := c.ShardSearch(context.Background(), []string{primary.URL, hedge.URL}, searchReq())
	if err != nil {
		t.Fatalf("ShardSearch: %v", err)
	}
	if len(resp.Scores) != 1 || resp.Scores[0] != 42 {
		t.Fatalf("want the hedge replica's answer, got %v", resp.Scores)
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
		fmt.Fprintf(w, `{"scores":[5]}`)
	}))
	defer hedge.Close()

	c := fastClient(Options{Retries: -1, HedgeDelay: time.Hour})
	start := time.Now()
	resp, err := c.ShardSearch(context.Background(), []string{dead.URL, hedge.URL}, searchReq())
	if err != nil {
		t.Fatalf("ShardSearch: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("promotion waited %v; should not sit out the hedge delay", elapsed)
	}
	if len(resp.Scores) != 1 || resp.Scores[0] != 5 {
		t.Fatalf("unexpected scores %v", resp.Scores)
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
	_, err := c.ShardSearch(context.Background(), []string{a.URL, b.URL}, searchReq())
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
	if _, err := c.ShardSearch(context.Background(), nil, searchReq()); err == nil {
		t.Fatal("want error for zero replica URLs")
	}
}
