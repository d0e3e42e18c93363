package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"heterosw/internal/core"
	"heterosw/internal/remote/faultproxy"
	"heterosw/internal/stats"
)

// The client half of the fault-injection matrix: every scripted fault
// class must be classified retryable and survived within the retry
// budget, and the prober that built the client must hear of each failed
// request with the URL it struck.

// searchUpstream answers /shard/search with a fixed score body.
func searchUpstream(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, nodeBody(7, 8, 9))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func faultedClientProxy(t *testing.T) *faultproxy.Proxy {
	t.Helper()
	up := searchUpstream(t)
	p, err := faultproxy.New(up.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestClientSurvivesScriptedFaults drives one scripted fault of each
// class ahead of a clean pass: every attempt must be classified
// retryable, and the final retry must deliver the upstream's answer
// unchanged. The schedule is attempt-keyed, so the test replays
// identically under -race and -count=20.
func TestClientSurvivesScriptedFaults(t *testing.T) {
	px := faultedClientProxy(t)
	px.Program(
		faultproxy.Step{Act: faultproxy.Unavailable},
		faultproxy.Step{Act: faultproxy.Drop},
		faultproxy.Step{Act: faultproxy.Truncate, Bytes: 4},
		faultproxy.Step{Act: faultproxy.HalfClose},
		faultproxy.Step{Act: faultproxy.Pass},
	)
	c := fastClient(Options{Retries: 4})
	resp, err := c.ShardSearch(context.Background(), []string{px.URL()}, searchReq(), 3, 0, "")
	if err != nil {
		t.Fatalf("ShardSearch through the fault schedule: %v", err)
	}
	if got := hitScores(resp); len(got) != 3 || got[0] != 7 {
		t.Fatalf("scores %v survived the faults wrong", got)
	}
	want := []faultproxy.Action{faultproxy.Unavailable, faultproxy.Drop, faultproxy.Truncate, faultproxy.HalfClose, faultproxy.Pass}
	log := px.Log()
	if len(log) != len(want) {
		t.Fatalf("proxy log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("proxy log %v, want %v", log, want)
		}
	}
}

// TestClientFailsUnderBudget pins that the same schedule with one fewer
// retry surfaces the last failure instead of the answer — the budget is
// real, not advisory.
func TestClientFailsUnderBudget(t *testing.T) {
	px := faultedClientProxy(t)
	px.Program(
		faultproxy.Step{Act: faultproxy.Unavailable},
		faultproxy.Step{Act: faultproxy.Drop},
		faultproxy.Step{Act: faultproxy.Pass},
	)
	c := fastClient(Options{Retries: 1})
	if _, err := c.ShardSearch(context.Background(), []string{px.URL()}, searchReq(), 3, 0, ""); err == nil {
		t.Fatal("two scripted faults must exhaust a 1-retry budget")
	}
	if got := px.Attempts(); got != 2 {
		t.Fatalf("proxy saw %d attempts, want exactly 2 (1 + 1 retry)", got)
	}
}

// reported drains the node URLs p's client has reported since p was
// built. With the background loop disabled nothing else reads them.
func reported(p *Prober) []string {
	var urls []string
	for {
		select {
		case url := <-p.kick:
			urls = append(urls, url)
		default:
			return urls
		}
	}
}

// TestFailedAttemptsReportNode pins the health-feedback contract: every
// retryable attempt failure is reported to the prober with the URL the
// attempt targeted, and the final success never is.
func TestFailedAttemptsReportNode(t *testing.T) {
	px := faultedClientProxy(t)
	px.Program(
		faultproxy.Step{Act: faultproxy.Unavailable},
		faultproxy.Step{Act: faultproxy.Drop},
		faultproxy.Step{Act: faultproxy.Pass},
	)
	p := NewProber([]string{px.URL()}, fastOptions(Options{Retries: 2}), ProberOptions{Interval: -1})
	if _, err := p.client.ShardSearch(context.Background(), []string{px.URL()}, searchReq(), 3, 0, ""); err != nil {
		t.Fatalf("ShardSearch: %v", err)
	}
	if got := reported(p); !slices.Equal(got, []string{px.URL(), px.URL()}) {
		t.Fatalf("reported %v, want the proxy URL twice", got)
	}
}

// TestTerminalFailureNotReported pins the other half: a terminal status
// (400) aborts the retry loop without a report — the node answered, it
// is not unhealthy.
func TestTerminalFailureNotReported(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad request"}`)
	}))
	defer srv.Close()
	p := NewProber([]string{srv.URL}, fastOptions(Options{Retries: 3}), ProberOptions{Interval: -1})
	_, err := p.client.ShardSearch(context.Background(), []string{srv.URL}, searchReq(), 3, 0, "")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("want terminal 400, got %v", err)
	}
	if got := reported(p); len(got) != 0 {
		t.Fatalf("reported %v for a terminal failure, want nothing", got)
	}
}

// TestBadAnswerFailsItsReplica pins that a 200 whose body fails to decode
// or to check fails the replica that sent it and nothing more: the next
// replica answers, each replica is asked once, and the bad one is
// reported to the prober. The check fails another shard's key or none,
// another scoring ID, wrong cells, a hit query index past the request's
// queries, a hit index past the shard or not above the one before, a
// hit score outside [0, stats.MaxScore], fewer than min(K, n) hits, a
// below bucket at or above the lowest hit score (a dropped tie), and hits
// and below that do not count the shard's n subjects. A right top-1
// answer passes at once. When every replica answers badly the request wraps
// ErrNoReplicas. Under hedging a primary that its hedge rescues is
// reported, and a loser cancelled because the other leg won is not.
func TestBadAnswerFailsItsReplica(t *testing.T) {
	ctx := context.Background()
	key := `{"shard":"` + searchReq().Shard + `",`
	hits := func(h ...int32) []core.ShardHit {
		out := make([]core.ShardHit, len(h)/2)
		for i := range out {
			out[i] = core.ShardHit{Index: h[2*i], Score: h[2*i+1]}
		}
		return out
	}
	// tied counts a 7 and a 9 below the lowest hit, a 9: one of them ties.
	tied := make([]int, 10)
	tied[7], tied[9] = 1, 1
	for _, tc := range []struct {
		name, body string
		k          int
	}{
		{"truncated varint", key + `"hits":"AAcBCAGA"}`, 0},
		{"bad base64", key + `"hits":"AA!BCAEJ"}`, 0},
		{"one score short", answerBody(hits(0, 7, 1, 8), nil, 0), 0},
		{"one score long", answerBody(hits(0, 7, 1, 8, 2, 9), []int{1}, 0), 0},
		{"another shard", `{"shard":"swdb:feedface-3-10","hits":"AAcAAQgAAQkA"}`, 0},
		{"no shard", `{"hits":"AAcAAQgAAQkA"}`, 0},
		{"wrong cells", key + `"hits":"AAcAAQgAAQkA","cells":3}`, 0},
		{"another scoring", key + `"scoring":"0123456789abcdef","hits":"AAcAAQgAAQkA"}`, 0},
		{"query past the queries", key + `"hits":"AAcAAQgAAQkB"}`, 0},
		{"index past the shard", answerBody(hits(0, 7, 1, 8, 3, 9), nil, 0), 0},
		{"indices not increasing", answerBody(hits(0, 7, 1, 8, 1, 9), nil, 0), 0},
		{"score past the bound", answerBody(hits(0, 7, 1, 8, 2, stats.MaxScore+1), nil, 0), 0},
		{"dropped tie", answerBody(hits(2, 9), tied, 0), 1},
		{"too few hits", answerBody(hits(2, 9), []int{7: 1, 8: 1}, 0), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := faultedClientProxy(t), faultedClientProxy(t)
			a.Program(faultproxy.Step{Act: faultproxy.Rewrite, Body: tc.body})
			p := NewProber([]string{a.URL(), b.URL()}, fastOptions(Options{}), ProberOptions{Interval: -1})
			req := searchReq()
			req.K = tc.k
			resp, err := p.client.ShardSearch(ctx, []string{a.URL(), b.URL()}, req, 3, 0, "")
			if err != nil {
				t.Fatalf("ShardSearch past one bad replica: %v", err)
			}
			if got := hitScores(resp); !slices.Equal(got, []int32{7, 8, 9}) {
				t.Fatalf("scores %v, want the second replica's [7 8 9]", got)
			}
			if a.Attempts() != 1 || b.Attempts() != 1 {
				t.Fatalf("replicas asked %d and %d times, want once each", a.Attempts(), b.Attempts())
			}
			if got := reported(p); !slices.Equal(got, []string{a.URL()}) {
				t.Fatalf("reported %v, want only the bad replica %s", got, a.URL())
			}
		})
	}

	t.Run("top-1 answer", func(t *testing.T) {
		a := faultedClientProxy(t)
		a.Program(faultproxy.Step{Act: faultproxy.Rewrite, Body: answerBody(hits(2, 9), []int{7: 1, 8: 1}, 0)})
		p := NewProber([]string{a.URL()}, fastOptions(Options{}), ProberOptions{Interval: -1})
		req := searchReq()
		req.K = 1
		resp, err := p.client.ShardSearch(ctx, []string{a.URL()}, req, 3, 0, "")
		if err != nil || len(resp.Hits) != 1 || a.Attempts() != 1 {
			t.Fatalf("ShardSearch = %+v, %v after %d attempts; want the top-1 answer at once", resp, err, a.Attempts())
		}
	})

	t.Run("own shard echoed", func(t *testing.T) {
		a := faultedClientProxy(t)
		body := key + `"hits":"AAcAAQgAAQkA","cells":30}`
		a.Program(faultproxy.Step{Act: faultproxy.Rewrite, Body: body})
		p := NewProber([]string{a.URL()}, fastOptions(Options{}), ProberOptions{Interval: -1})
		resp, err := p.client.ShardSearch(ctx, []string{a.URL()}, searchReq(), 3, 10, "")
		if err != nil || resp.Shard != searchReq().Shard || a.Attempts() != 1 {
			t.Fatalf("ShardSearch = %+v, %v after %d attempts; want the echoing answer at once", resp, err, a.Attempts())
		}
	})

	t.Run("every replica bad", func(t *testing.T) {
		a, b := faultedClientProxy(t), faultedClientProxy(t)
		a.Program(faultproxy.Step{Act: faultproxy.Rewrite, Body: key + `"hits":"AAcBCAGA"}`})
		b.Program(faultproxy.Step{Act: faultproxy.Rewrite, Body: answerBody(hits(0, 7, 1, 8), nil, 0)})
		p := NewProber([]string{a.URL(), b.URL()}, fastOptions(Options{Retries: 1}), ProberOptions{Interval: -1})
		_, err := p.client.ShardSearch(ctx, []string{a.URL(), b.URL()}, searchReq(), 3, 0, "")
		if !errors.Is(err, ErrNoReplicas) {
			t.Fatalf("every replica answering badly: err = %v, want ErrNoReplicas", err)
		}
		if got := reported(p); !slices.Equal(got, []string{a.URL(), b.URL()}) {
			t.Fatalf("reported %v, want both replicas", got)
		}
	})

	t.Run("hedge rescues primary", func(t *testing.T) {
		a, b := faultedClientProxy(t), faultedClientProxy(t)
		a.Program(faultproxy.Step{Act: faultproxy.Rewrite, Body: key + `"hits":"AAcBCAGA"}`})
		p := NewProber([]string{a.URL(), b.URL()}, fastOptions(Options{Retries: -1, HedgeDelay: time.Hour}), ProberOptions{Interval: -1})
		resp, err := p.client.ShardSearch(ctx, []string{a.URL(), b.URL()}, searchReq(), 3, 0, "")
		if err != nil || !slices.Equal(hitScores(resp), []int32{7, 8, 9}) {
			t.Fatalf("hedged ShardSearch = %v, %v; want the hedge's [7 8 9]", resp, err)
		}
		if got := reported(p); !slices.Equal(got, []string{a.URL()}) {
			t.Fatalf("reported %v, want the rescued primary %s", got, a.URL())
		}
	})

	t.Run("cancelled loser", func(t *testing.T) {
		cancelled := make(chan struct{})
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) // so net/http watches for the disconnect
			<-r.Context().Done()
			close(cancelled)
		}))
		defer slow.Close()
		fast := searchUpstream(t)
		p := NewProber([]string{slow.URL, fast.URL}, fastOptions(Options{Retries: -1, HedgeDelay: 5 * time.Millisecond}), ProberOptions{Interval: -1})
		if _, err := p.client.ShardSearch(ctx, []string{slow.URL, fast.URL}, searchReq(), 3, 0, ""); err != nil {
			t.Fatalf("hedged ShardSearch: %v", err)
		}
		<-cancelled
		// The loser's leg ends as its node sees the cancellation; give a
		// leg that wrongly reports its own cancellation time to do so.
		time.Sleep(20 * time.Millisecond)
		if got := reported(p); len(got) != 0 {
			t.Fatalf("reported %v, want nothing: the loser was cancelled, not failed", got)
		}
	})
}

// TestEmptyReplicasIsTypedRetryable pins the uncovered-shard error: a
// request against zero replicas fails with ErrNoReplicas, classified
// retryable, so callers keep retrying while the prober refills the set.
func TestEmptyReplicasIsTypedRetryable(t *testing.T) {
	c := fastClient(Options{})
	_, err := c.ShardSearch(context.Background(), nil, searchReq(), 3, 0, "")
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("want ErrNoReplicas, got %v", err)
	}
	if !Retryable(err) {
		t.Fatalf("ErrNoReplicas must classify retryable, got terminal: %v", err)
	}
}
