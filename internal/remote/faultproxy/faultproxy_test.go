package faultproxy

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The proxy's own contract tests: each scripted action must produce, at
// the client, exactly the failure class the distributed layer's retry
// policy expects — and the schedule must advance only on matching
// requests, so a programmed test never races its own probe traffic.

// startUpstream serves a fixed JSON body on every path.
func startUpstream(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"scores":[1,2,3]}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func startProxy(t *testing.T, upstream string) *Proxy {
	t.Helper()
	p, err := New(upstream)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// get issues one GET through a fresh connection (no keep-alive reuse, so
// a prior torn connection cannot poison the next request).
func get(t *testing.T, url string) (*http.Response, []byte, error) {
	t.Helper()
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	return resp, body, rerr
}

// TestScheduleSequence pins the core mechanism: matching request n gets
// step n, requests beyond the script pass, and the log records the
// applied actions.
func TestScheduleSequence(t *testing.T) {
	up := startUpstream(t)
	p := startProxy(t, up.URL)
	p.Program(Step{Act: Unavailable}, Step{Act: Pass})

	resp, _, err := get(t, p.URL()+"/shard/search")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("step 0: status %v err %v, want 503", resp, err)
	}
	for i := 0; i < 2; i++ { // step 1 (Pass) and beyond-script passthrough
		resp, body, err := get(t, p.URL()+"/shard/search")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %v err %v, want 200", i+1, resp, err)
		}
		if !strings.Contains(string(body), `"scores"`) {
			t.Fatalf("request %d: body %q lost the upstream payload", i+1, body)
		}
	}
	if got := p.Attempts(); got != 3 {
		t.Fatalf("Attempts() = %d, want 3", got)
	}
	if log := p.Log(); len(log) != 3 || log[0] != Unavailable || log[1] != Pass || log[2] != Pass {
		t.Fatalf("Log() = %v, want [503 pass pass]", log)
	}
}

// TestDropIsTransportError pins that Drop (and a down node) surface as a
// transport error, not any HTTP response.
func TestDropIsTransportError(t *testing.T) {
	up := startUpstream(t)
	p := startProxy(t, up.URL)
	p.Program(Step{Act: Drop})

	if _, _, err := get(t, p.URL()+"/x"); err == nil {
		t.Fatal("Drop must surface as a transport error")
	}
}

// TestTruncateIsBodyReadError pins the Truncate contract: the client gets
// the original status and Content-Length but a short body, so the failure
// lands in the body read (retryable transport class), never in a JSON
// decoder fed complete-looking bytes.
func TestTruncateIsBodyReadError(t *testing.T) {
	up := startUpstream(t)
	p := startProxy(t, up.URL)
	p.Program(Step{Act: Truncate, Bytes: 5})

	resp, body, err := get(t, p.URL()+"/x")
	if resp == nil {
		t.Fatalf("Truncate must deliver headers, got transport error %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want the upstream's 200", resp.StatusCode)
	}
	if err == nil {
		t.Fatalf("body read must fail short, got %d clean bytes", len(body))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want unexpected EOF, got %v", err)
	}
	if len(body) != 5 {
		t.Fatalf("delivered %d bytes before the cut, want 5", len(body))
	}
}

// TestHalfCloseReachesUpstream pins the ambiguous-failure case: the
// upstream sees (and completes) the request, but the client sees only a
// torn connection.
func TestHalfCloseReachesUpstream(t *testing.T) {
	hits := 0
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		io.WriteString(w, `{"ok":true}`)
	}))
	defer up.Close()
	p := startProxy(t, up.URL)
	p.Program(Step{Act: HalfClose})

	if _, _, err := get(t, p.URL()+"/x"); err == nil {
		t.Fatal("HalfClose must look like a transport error to the client")
	}
	if hits != 1 {
		t.Fatalf("upstream saw %d requests, want 1 (the side effect happened)", hits)
	}
}

// TestRewriteReachesUpstream pins the wrong-answer case: the upstream
// sees (and completes) the request, and the client gets a clean 200
// carrying the scripted body instead of the upstream's.
func TestRewriteReachesUpstream(t *testing.T) {
	var hits atomic.Int64
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, `{"ok":true}`)
	}))
	defer up.Close()
	p := startProxy(t, up.URL)
	p.Program(Step{Act: Rewrite, Body: `{"scores":"BwiA"}`})

	resp, body, err := get(t, p.URL()+"/x")
	if err != nil {
		t.Fatalf("Rewrite must answer cleanly, got %v", err)
	}
	if resp.StatusCode != http.StatusOK || string(body) != `{"scores":"BwiA"}` {
		t.Fatalf("Rewrite answered %d %q, want 200 with the scripted body", resp.StatusCode, body)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("upstream saw %d requests, want 1", n)
	}
}

// TestSetDownPreservesSchedule pins the kill/revive contract: a down node
// drops everything without consuming script positions, so the programmed
// schedule resumes exactly where it was on revival.
func TestSetDownPreservesSchedule(t *testing.T) {
	up := startUpstream(t)
	p := startProxy(t, up.URL)
	p.Program(Step{Act: Unavailable})

	p.SetDown(true)
	for i := 0; i < 3; i++ {
		if _, _, err := get(t, p.URL()+"/x"); err == nil {
			t.Fatalf("down request %d: want transport error", i)
		}
	}
	if got := p.Attempts(); got != 0 {
		t.Fatalf("down requests consumed %d schedule positions, want 0", got)
	}
	p.SetDown(false)
	resp, _, err := get(t, p.URL()+"/x")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("revived step 0: status %v err %v, want the scripted 503", resp, err)
	}
}

// TestMatchFilterSkipsOtherPaths pins that non-matching traffic (probes)
// passes through without consuming the schedule.
func TestMatchFilterSkipsOtherPaths(t *testing.T) {
	up := startUpstream(t)
	p := startProxy(t, up.URL)
	p.Match(func(r *http.Request) bool { return r.URL.Path == "/shard/search" })
	p.Program(Step{Act: Drop})

	resp, _, err := get(t, p.URL()+"/shards")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("probe through a programmed proxy: status %v err %v, want clean 200", resp, err)
	}
	if got := p.Attempts(); got != 0 {
		t.Fatalf("probe consumed %d schedule positions, want 0", got)
	}
	if _, _, err := get(t, p.URL()+"/shard/search"); err == nil {
		t.Fatal("matching request must hit the scripted Drop")
	}
	if got := p.Attempts(); got != 1 {
		t.Fatalf("Attempts() = %d after the matching request, want 1", got)
	}
}

// TestDelayForwardsAfterWait pins that a sub-timeout Delay is survivable:
// the request completes with the upstream's answer.
func TestDelayForwardsAfterWait(t *testing.T) {
	up := startUpstream(t)
	p := startProxy(t, up.URL)
	p.Program(Step{Act: Delay, Wait: 10 * time.Millisecond})

	start := time.Now()
	resp, _, err := get(t, p.URL()+"/x")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delayed request: status %v err %v, want 200", resp, err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("response arrived before the scripted delay elapsed")
	}
}
