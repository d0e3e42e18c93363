package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxNodeResponseBytes bounds one node response. A full shard score list
// packs to at most ~7 bytes per sequence (a five-byte varint in base64),
// under two for typical scores; 64 MB covers multi-million-sequence shards
// with room to spare.
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
	// primary has not answered within the delay; the first success wins
	// and the loser is cancelled. 0 disables hedging.
	HedgeDelay time.Duration
	// OnFailure, when non-nil, is called with the primary URL of every
	// retryable attempt failure (the caller's context still being live).
	// The coordinator wires it to the health prober's Kick, so a node
	// failing real traffic is re-probed immediately instead of at the
	// next periodic sweep. It must not block.
	OnFailure func(url string, err error)
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 10 * time.Second
	} else if o.Timeout < 0 {
		o.Timeout = 0
	}
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff == 0 {
		o.Backoff = 100 * time.Millisecond
	} else if o.Backoff < 0 {
		o.Backoff = 0
	}
	return o
}

// Client talks to swserve shard nodes with per-attempt timeouts, bounded
// retries over retryable failures, exponential backoff and optional
// hedging across replicas. A Client is safe for concurrent use and is
// shared by every Backend of one coordinator. Requests go through
// http.DefaultClient; per-attempt deadlines come from Options.Timeout.
type Client struct {
	opt Options
}

// NewClient builds a client.
func NewClient(opt Options) *Client {
	return &Client{opt: opt.withDefaults()}
}

// Shards fetches one node's shard inventory. Discovery is a single
// attempt — the coordinator probes every node and tolerates individual
// failures, so retrying here would only slow startup.
func (c *Client) Shards(ctx context.Context, node string) (*ShardsResponse, error) {
	if c.opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opt.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/shards", nil)
	if err != nil {
		return nil, err
	}
	raw, err := c.read(req, node)
	if err != nil {
		return nil, err
	}
	var out ShardsResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("remote: %s/shards: %w", node, err)
	}
	return &out, nil
}

// ShardSearch scores one query over one shard, trying the shard's replica
// URLs under the client's retry/hedging policy.
func (c *Client) ShardSearch(ctx context.Context, urls []string, req *ShardSearchRequest) (*ShardSearchResponse, error) {
	out := new(ShardSearchResponse)
	if err := c.do(ctx, urls, "/shard/search", req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ShardAlign runs tracebacks for one shard's hits under the same policy.
func (c *Client) ShardAlign(ctx context.Context, urls []string, req *ShardAlignRequest) (*ShardAlignResponse, error) {
	out := new(ShardAlignResponse)
	if err := c.do(ctx, urls, "/shard/align", req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// do is the retry loop: attempt a routes to urls[a mod len(urls)], failed
// retryable attempts back off exponentially, and non-retryable failures
// (or a dead caller context) stop immediately.
func (c *Client) do(ctx context.Context, urls []string, path string, reqBody, respBody any) error {
	if len(urls) == 0 {
		return fmt.Errorf("%w for %s", ErrNoReplicas, path)
	}
	body, err := json.Marshal(reqBody)
	if err != nil {
		return err
	}
	attempts := c.opt.Retries + 1
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 && c.opt.Backoff > 0 {
			select {
			case <-time.After(c.opt.Backoff << (a - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		raw, err := c.attempt(ctx, urls, a, path, body)
		if err == nil {
			if uerr := json.Unmarshal(raw, respBody); uerr != nil {
				return fmt.Errorf("remote: %s: %w", path, uerr)
			}
			return nil
		}
		lastErr = err
		if !Retryable(err) || ctx.Err() != nil {
			return err
		}
		if c.opt.OnFailure != nil {
			c.opt.OnFailure(urls[a%len(urls)], err)
		}
	}
	return fmt.Errorf("remote: %s failed after %d attempts: %w", path, attempts, lastErr)
}

// postResult is one in-flight POST's outcome.
type postResult struct {
	url string
	raw []byte
	err error
}

// attempt runs one logical attempt: a POST to the attempt's primary
// replica, plus — when hedging is enabled and another replica exists — a
// duplicate launched either after HedgeDelay or immediately once the
// primary fails. The first success wins and cancels the other request;
// the attempt fails only when every launched request has failed.
func (c *Client) attempt(ctx context.Context, urls []string, a int, path string, body []byte) ([]byte, error) {
	var (
		actx   context.Context
		cancel context.CancelFunc
	)
	if c.opt.Timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.opt.Timeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	primary := urls[a%len(urls)]
	if c.opt.HedgeDelay <= 0 || len(urls) < 2 {
		r := c.post(actx, primary, path, body)
		return r.raw, r.err
	}
	hedge := urls[(a+1)%len(urls)]

	ch := make(chan postResult, 2)
	launch := func(url string) {
		go func() { ch <- c.post(actx, url, path, body) }()
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
				return r.raw, nil
			}
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

// post runs one POST and returns the raw 200 body or a classified error.
func (c *Client) post(ctx context.Context, base, path string, body []byte) postResult {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return postResult{url: base, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	raw, err := c.read(req, base)
	return postResult{url: base, raw: raw, err: err}
}

// read executes a prepared request, capping the body and converting
// non-200 statuses to StatusError.
func (c *Client) read(req *http.Request, base string) ([]byte, error) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxNodeResponseBytes))
	if resp.StatusCode != http.StatusOK {
		msg := ""
		var ej errorJSON
		if json.Unmarshal(raw, &ej) == nil {
			msg = ej.Error
		}
		return nil, &StatusError{Code: resp.StatusCode, Msg: msg}
	}
	if err != nil {
		return nil, fmt.Errorf("remote: reading %s: %w", base, err)
	}
	return raw, nil
}
