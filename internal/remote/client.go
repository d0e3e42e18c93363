package remote

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxNodeResponseBytes bounds one node response. A top-K answer is a few
// hundred bytes; the every-hit form (K = 0) packs to at most ~14 bytes per
// sequence (two five-byte varints in base64), under four for typical
// scores, so 64 MB covers multi-million-sequence shards with room to spare.
const maxNodeResponseBytes = 64 << 20

// Options tunes a Client. The zero value selects the defaults noted on
// each field.
type Options struct {
	// Timeout bounds each individual attempt (10s when 0; negative
	// disables). A slow node trips it and the next attempt routes to the
	// next replica.
	Timeout time.Duration
	// Retries is how many additional attempts follow a retryable failure
	// (2 when 0; negative disables retries). Attempts rotate across the
	// shard's replicas.
	Retries int
	// Backoff is the wait before the first retry, doubling per attempt
	// (100ms when 0; negative disables waiting). Retries triggered by a
	// 503 — a draining node — are exactly the ones backoff helps.
	Backoff time.Duration
	// HedgeDelay, when positive and the shard has at least two replicas,
	// launches a duplicate request against the next replica if the
	// primary has not answered within the delay; the first valid answer
	// wins and the other request is cancelled. 0 disables hedging.
	HedgeDelay time.Duration
}

func (o Options) withDefaults() Options {
	o.Timeout = defaulted(o.Timeout, 10*time.Second)
	o.Retries = defaulted(o.Retries, 2)
	o.Backoff = defaulted(o.Backoff, 100*time.Millisecond)
	return o
}

// defaulted resolves one option: def when v is 0, and 0 (none) when v is
// negative.
func defaulted[T int | time.Duration](v, def T) T {
	if v < 0 {
		return 0
	}
	return cmp.Or(v, def)
}

// Client talks to swserve shard nodes with per-attempt timeouts, bounded
// retries over retryable failures, exponential backoff and optional
// hedging across replicas. A Client is safe for concurrent use and is
// shared by every Backend of one coordinator. Requests go through
// http.DefaultClient; per-attempt deadlines come from Options.Timeout.
type Client struct {
	opt Options
	// report, when non-nil, hears the URL of every request that failed
	// retryably while its caller still waited. NewProber sets it to the
	// prober's Kick, so a node failing real traffic is re-probed at once.
	report func(url string)
	// mark, when non-nil, hears the URL of every POST answered 200: wrong
	// when its body failed to decode or to check. NewProber sets it to the
	// prober's mark, so a node that answers wrongly loses its preference.
	mark func(url string, wrong bool)
}

// NewClient builds a client.
func NewClient(opt Options) *Client {
	return &Client{opt: opt.withDefaults()}
}

// bound derives one attempt's context: cancellable, and bounded by
// Options.Timeout when that is set.
func (c *Client) bound(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.opt.Timeout > 0 {
		return context.WithTimeout(ctx, c.opt.Timeout)
	}
	return context.WithCancel(ctx)
}

// Shards fetches one node's shard inventory. Discovery is a single
// attempt — the coordinator probes every node and tolerates individual
// failures, so retrying here would only slow startup.
func (c *Client) Shards(ctx context.Context, node string) (*ShardsResponse, error) {
	ctx, cancel := c.bound(ctx)
	defer cancel()
	return exchange[ShardsResponse](ctx, http.MethodGet, node+"/shards", nil, nil)
}

// ShardSearch scores a search's queries over one shard of n sequences and
// residues residues under the scoring with ID scoring, trying the shard's
// replica URLs under the client's retry/hedging policy. An answer that
// fails its check fails its replica, as a dropped connection does (see
// ShardSearchResponse.check).
func (c *Client) ShardSearch(ctx context.Context, urls []string, req *ShardSearchRequest, n int, residues int64, scoring string) (*ShardSearchResponse, error) {
	return call(ctx, c, urls, "/shard/search", req, func(r *ShardSearchResponse) error {
		return r.check(req, n, residues, scoring)
	})
}

// call is the retry loop: attempt a routes to urls[a mod len(urls)],
// failed retryable attempts back off exponentially, and non-retryable
// failures (or a dead caller context) stop immediately. A request whose
// attempts all fail wraps ErrNoReplicas: no replica gave a valid answer.
func call[T any](ctx context.Context, c *Client, urls []string, path string, reqBody any, check func(*T) error) (*T, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("%w for %s", ErrNoReplicas, path)
	}
	body, err := json.Marshal(reqBody)
	if err != nil {
		return nil, err
	}
	attempts := c.opt.Retries + 1
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 && c.opt.Backoff > 0 {
			select {
			case <-time.After(c.opt.Backoff << (a - 1)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		out, err := attempt(ctx, c, urls, a, path, body, check)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if !Retryable(err) || ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: %s failed after %d attempts: %w", ErrNoReplicas, path, attempts, lastErr)
}

// leg is one POST's outcome: a checked answer or the failure of url.
type leg[T any] struct {
	url string
	out *T
	err error
}

// attempt runs one logical attempt: a POST to the attempt's primary
// replica, plus — when hedging is enabled and another replica exists — a
// duplicate launched either after HedgeDelay or immediately once the
// primary fails. The first valid answer wins and cancels the other
// request; the attempt fails only when every launched request has failed.
// Every leg the attempt waits for that fails retryably is reported
// against its own URL; a leg still running when the other wins is
// cancelled, not failed.
func attempt[T any](ctx context.Context, c *Client, urls []string, a int, path string, body []byte, check func(*T) error) (*T, error) {
	actx, cancel := c.bound(ctx)
	defer cancel()
	post := func(url string) leg[T] {
		out, err := exchange(actx, http.MethodPost, url+path, body, check)
		var wrong *answerError
		if c.mark != nil && (err == nil || errors.As(err, &wrong)) {
			c.mark(url, err != nil)
		}
		return leg[T]{url: url, out: out, err: err}
	}
	// report re-probes the node of a leg the attempt waited for, if the
	// leg failed retryably while the caller still waits.
	report := func(r leg[T]) {
		if r.err != nil && c.report != nil && Retryable(r.err) && ctx.Err() == nil {
			c.report(r.url)
		}
	}

	primary := urls[a%len(urls)]
	if c.opt.HedgeDelay <= 0 || len(urls) < 2 {
		r := post(primary)
		report(r)
		return r.out, r.err
	}
	hedge := urls[(a+1)%len(urls)]

	ch := make(chan leg[T], 2)
	launch := func(url string) {
		go func() { ch <- post(url) }()
	}
	launch(primary)
	inflight, hedged := 1, false
	timer := time.NewTimer(c.opt.HedgeDelay)
	defer timer.Stop()
	var errs []error
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				// Winner: cancel the in-flight loser (if any) via the
				// shared attempt context.
				cancel()
				return r.out, nil
			}
			report(r)
			errs = append(errs, fmt.Errorf("%s: %w", r.url, r.err))
			if !hedged {
				// The primary failed before the hedge timer fired: there
				// is no reason to sit out the rest of the delay.
				timer.Stop()
				launch(hedge)
				hedged, inflight = true, inflight+1
				continue
			}
			if inflight == 0 {
				return nil, errors.Join(errs...)
			}
		case <-timer.C:
			if !hedged {
				launch(hedge)
				hedged, inflight = true, inflight+1
			}
		}
	}
}

// exchange runs one request against one node and owns its outcome: a 200
// body decodes into a fresh T that must pass check (nil checks nothing);
// a non-200 answer is a StatusError; anything else is an error naming
// the URL.
func exchange[T any](ctx context.Context, method, url string, body []byte, check func(*T) error) (*T, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := readBody(resp)
	if resp.StatusCode != http.StatusOK {
		msg := ""
		var ej errorJSON
		if json.Unmarshal(raw, &ej) == nil {
			msg = ej.Error
		}
		return nil, &StatusError{Code: resp.StatusCode, Msg: msg}
	}
	if err != nil {
		return nil, fmt.Errorf("remote: reading %s: %w", url, err)
	}
	out := new(T)
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, &answerError{fmt.Errorf("remote: %s: %w", url, err)}
	}
	if check != nil {
		if err := check(out); err != nil {
			return nil, &answerError{fmt.Errorf("remote: %s: %w", url, err)}
		}
	}
	return out, nil
}

// answerError is a 200 answer whose body failed to decode or to check: its
// node answered, and answered wrongly.
type answerError struct{ err error }

func (e *answerError) Error() string { return e.err.Error() }
func (e *answerError) Unwrap() error { return e.err }

// readBody reads at most maxNodeResponseBytes of a response body, into one
// buffer when the body declares its length, else into a growing one.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxNodeResponseBytes {
		raw := make([]byte, n)
		got, err := io.ReadFull(resp.Body, raw)
		return raw[:got], err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxNodeResponseBytes))
}
