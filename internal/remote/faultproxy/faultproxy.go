// Package faultproxy is a deterministic in-process fault-injection HTTP
// proxy for the distributed layer's tests: it sits between a coordinator
// (or prober, or bare client) and one shard node, applying a scripted
// schedule of faults — drop, delay, half-close, 503 burst, byte-truncate,
// rewritten 200 body — keyed purely on the request attempt number.
// Nothing is randomised and nothing depends on wall-clock timing, so a
// schedule replays identically under -race, -count=20 and loaded CI
// runners.
//
// The script is a step list: request n (0-based, counting only requests
// the filter matches) gets Steps[n]; requests beyond the script pass
// through untouched. SetDown simulates whole-node death independently of
// the script — every request is dropped at the TCP level and the script
// position does not advance — so a test can kill and revive a node
// without rebinding ports or disturbing its schedule.
package faultproxy

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Action is one scripted fault.
type Action int

const (
	// Pass forwards the request untouched.
	Pass Action = iota
	// Drop closes the client connection without reading or answering:
	// the client sees a transport error (retryable).
	Drop
	// Delay waits Step.Wait, then forwards. With Wait beyond the
	// client's per-attempt timeout this is the deterministic "slow
	// replica"; below it, a latency spike the request survives.
	Delay
	// HalfClose forwards the request to the upstream — its side effects
	// happen — then closes the client connection before writing any
	// response byte: the client's request succeeded server-side but
	// looks like a transport failure (retryable), the classic
	// ambiguous-failure case.
	HalfClose
	// Unavailable answers 503 without contacting the upstream — a
	// draining node (retryable by the wire contract).
	Unavailable
	// Truncate forwards the request, then delivers the response with its
	// ORIGINAL Content-Length but only Step.Bytes body bytes before
	// closing. The client's body read fails with unexpected EOF: the body
	// is cut off in transit, not answered short.
	Truncate
	// Rewrite forwards the request — its side effects happen — then
	// answers 200 with Step.Body in place of the upstream's answer: a
	// node that answers, but wrongly.
	Rewrite
)

// String names the action for schedule logs and test failures.
func (a Action) String() string {
	switch a {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case HalfClose:
		return "half-close"
	case Unavailable:
		return "503"
	case Truncate:
		return "truncate"
	case Rewrite:
		return "rewrite"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Step is one scheduled fault. Wait applies to Delay; Bytes to Truncate;
// Body to Rewrite.
type Step struct {
	Act   Action
	Wait  time.Duration
	Bytes int
	Body  string
}

// Proxy is one node's fault injector. Zero value is not usable; build
// with New.
type Proxy struct {
	upstream  string
	ln        net.Listener
	srv       *http.Server
	transport *http.Transport

	mu sync.Mutex
	//sw:guardedBy(mu)
	steps []Step
	//sw:guardedBy(mu)
	pos int
	//sw:guardedBy(mu)
	down bool
	//sw:guardedBy(mu)
	match func(*http.Request) bool
	//sw:guardedBy(mu)
	applied []Action
}

// New starts a proxy in front of the upstream base URL (e.g. an
// httptest.Server.URL), listening on a loopback port. With no script
// programmed every request passes through.
func New(upstream string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		upstream:  upstream,
		ln:        ln,
		transport: &http.Transport{},
	}
	p.srv = &http.Server{Handler: http.HandlerFunc(p.handle)}
	go func() { _ = p.srv.Serve(ln) }()
	return p, nil
}

// URL is the proxy's base URL; clients use it in place of the upstream's.
func (p *Proxy) URL() string { return "http://" + p.ln.Addr().String() }

// Close stops the listener and releases idle upstream connections.
func (p *Proxy) Close() {
	_ = p.srv.Close()
	p.transport.CloseIdleConnections()
}

// Program installs a fault schedule and resets the attempt counter and
// action log: matching request n gets steps[n]; later requests pass.
func (p *Proxy) Program(steps ...Step) {
	p.mu.Lock()
	p.steps = append([]Step(nil), steps...)
	p.pos = 0
	p.applied = nil
	p.mu.Unlock()
}

// Match restricts the schedule to requests the filter accepts (e.g. only
// /shard/search, leaving probe traffic clean); nil matches everything.
// Non-matching requests pass through without consuming a step.
func (p *Proxy) Match(f func(*http.Request) bool) {
	p.mu.Lock()
	p.match = f
	p.mu.Unlock()
}

// SetDown marks the node dead (every request dropped, script untouched)
// or alive again.
func (p *Proxy) SetDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

// Attempts counts the matching requests that consumed schedule positions
// since the last Program.
func (p *Proxy) Attempts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pos
}

// Log returns the actions applied to matching requests since the last
// Program, in arrival order.
func (p *Proxy) Log() []Action {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Action(nil), p.applied...)
}

// next resolves the step for one inbound request.
func (p *Proxy) next(r *http.Request) Step {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return Step{Act: Drop}
	}
	if p.match != nil && !p.match(r) {
		return Step{Act: Pass}
	}
	step := Step{Act: Pass}
	if p.pos < len(p.steps) {
		step = p.steps[p.pos]
	}
	p.pos++
	p.applied = append(p.applied, step.Act)
	return step
}

func (p *Proxy) handle(w http.ResponseWriter, r *http.Request) {
	step := p.next(r)
	switch step.Act {
	case Drop:
		p.abort(w)
	case Unavailable:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"faultproxy: scripted unavailability"}`)
	case Delay:
		select {
		case <-time.After(step.Wait):
		case <-r.Context().Done():
			p.abort(w)
			return
		}
		p.forward(w, r)
	case Pass:
		p.forward(w, r)
	case HalfClose, Rewrite:
		resp, err := p.roundTrip(r)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err != nil || step.Act == HalfClose {
			p.abort(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, step.Body)
	case Truncate:
		resp, err := p.roundTrip(r)
		if err != nil {
			p.abort(w)
			return
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			p.abort(w)
			return
		}
		p.truncate(w, resp, body, step.Bytes)
	}
}

// roundTrip replays the inbound request against the upstream.
func (p *Proxy) roundTrip(r *http.Request) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.upstream+r.URL.RequestURI(), r.Body)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	req.ContentLength = r.ContentLength
	return p.transport.RoundTrip(req)
}

// forward proxies the request and relays the full response.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request) {
	resp, err := p.roundTrip(r)
	if err != nil {
		// The upstream is genuinely gone; surface it as the same torn
		// connection a Drop produces, so the client classification is
		// uniform (transport error, retryable).
		p.abort(w)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// abort tears the client connection down without an HTTP response.
func (p *Proxy) abort(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		// Should not happen on HTTP/1.1; panicking with ErrAbortHandler
		// still kills the connection without a response.
		panic(http.ErrAbortHandler)
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	conn.Close()
}

// truncate writes the response status and headers with the ORIGINAL
// Content-Length, delivers only n body bytes, and closes the connection:
// the client's body read dies with unexpected EOF.
func (p *Proxy) truncate(w http.ResponseWriter, resp *http.Response, body []byte, n int) {
	if n > len(body) {
		n = len(body)
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic(http.ErrAbortHandler)
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	defer conn.Close()
	fmt.Fprintf(bufrw, "HTTP/1.1 %s\r\n", resp.Status)
	ct := resp.Header.Get("Content-Type")
	if ct != "" {
		fmt.Fprintf(bufrw, "Content-Type: %s\r\n", ct)
	}
	fmt.Fprintf(bufrw, "Content-Length: %d\r\nConnection: close\r\n\r\n", len(body))
	_, _ = bufrw.Write(body[:n])
	_ = bufrw.Flush()
}
