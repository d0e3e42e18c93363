package main

// Closed-loop load: a fixed number of keep-alive clients in this process,
// each sending its next request only once the previous one has answered.
// Bodies are rendered before the clock starts and replies are retained, not
// parsed, while it runs.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// op is one HTTP request of a round and the queries it carries: one for
// /search, several for /batch. One query is one operation.
type op struct {
	path    string
	body    []byte
	queries []query
	// expect, when set, is the exact body a correct reply carries (cache-hit
	// traffic re-asks queries whose first reply was fully verified); the
	// reply is then compared in place and not retained.
	expect []byte
}

// reply is what came back for one op.
type reply struct {
	latency time.Duration
	body    []byte
	err     error
}

// clientCount is min(nproc, 4).
func clientCount() int { return min(runtime.NumCPU(), 4) }

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one op and reads the whole reply.
func post(ctx context.Context, hc *http.Client, base string, o *op) reply {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{latency: time.Since(start), body: body, err: err}
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	case o.expect != nil:
		if !bytes.Equal(body, o.expect) {
			r.err = fmt.Errorf("reply differs from the verified first answer")
		}
		r.body = nil
	}
	return r
}

// closedLoop drives ops through `clients` concurrent clients and returns the
// replies in op order with the wall time of the whole round.
func closedLoop(ctx context.Context, hc *http.Client, base string, ops []op, clients int) ([]reply, time.Duration) {
	replies := make([]reply, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				replies[i] = post(ctx, hc, base, &ops[i])
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

// parallel runs work(i) for i in [0, n) on `workers` goroutines; newWorker
// builds each goroutine's own closure, so workers can hold private scratch.
func parallel(n, workers int, newWorker func() func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := newWorker()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(i)
			}
		}()
	}
	wg.Wait()
}
