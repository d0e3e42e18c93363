package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"heterosw"
)

func testCluster(t *testing.T, opt heterosw.ClusterOptions) *heterosw.Cluster {
	t.Helper()
	db, _ := heterosw.SyntheticSwissProt(0.001, false)
	cl, err := heterosw.NewCluster(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func startServer(t *testing.T, cl *heterosw.Cluster) (*http.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: heterosw.NewHTTPHandler(cl)}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String()
}

// TestShutdownUnderLoad pins the teardown ordering fix end to end: with
// requests still blocked inside the scheduler when the drain window
// expires, every in-flight client must receive a COMPLETE response —
// a 200 result or the retryable 503 — never a torn connection, because
// shutdownServer now tears down the scheduled paths first and then waits
// out a flush window for the unblocked handlers' writes.
func TestShutdownUnderLoad(t *testing.T) {
	// One in-flight slot clogs the scheduler: the eight aligned top-64
	// requests run one at a time, each re-aligning 64 hits, and together
	// outlast the drain several times over, so teardown is guaranteed to
	// find requests still queued. The traceback phase checks the
	// scheduler context at every hit, so CloseNow cuts the in-flight one
	// short well inside the flush window, even on the portable vec tier,
	// whose score pass cannot be interrupted.
	cl := testCluster(t, heterosw.ClusterOptions{
		Devices:     []heterosw.DeviceKind{heterosw.DeviceXeon},
		Dist:        "static",
		MaxInFlight: 1,
		CacheSize:   -1,
	})
	srv, base := startServer(t, cl)

	const clients = 8
	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make([]reply, clients)
	var wg sync.WaitGroup
	// One connection per request. With keep-alives, a request that answers
	// while the others are still dialling hands its connection to one of
	// them, and that one's own dial lands on the server as a connection
	// that never sends a request — which http.Server.Shutdown waits five
	// seconds for, longer than the flush window. (The first request runs
	// at once; the rest queue behind it.)
	httpc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"id":"q%d","residues":"%s%sARND","align":true,"top_k":64}`,
				i, strings.Repeat("MKWVTFISLLLLFSSAYSRGV", 15), strings.Repeat("A", i+1))
			resp, err := httpc.Post(base+"/search", "application/json", strings.NewReader(body))
			if err != nil {
				replies[i] = reply{err: err}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			replies[i] = reply{status: resp.StatusCode, body: b, err: err}
		}(i)
	}

	// Let every request reach the scheduler before tearing down.
	deadline := time.Now().Add(5 * time.Second)
	for cl.SchedulerStats().Submitted < clients {
		if time.Now().After(deadline) {
			t.Fatal("requests never reached the scheduler")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := shutdownServer(srv, 50*time.Millisecond, cl.Close, cl.CloseNow); err != nil {
		t.Fatalf("shutdownServer: %v", err)
	}
	wg.Wait()

	var got503 int
	for i, r := range replies {
		if r.err != nil {
			t.Errorf("client %d: torn response: %v", i, r.err)
			continue
		}
		if r.status != http.StatusOK && r.status != http.StatusServiceUnavailable {
			t.Errorf("client %d: status %d, want 200 or 503 (body %s)", i, r.status, r.body)
		}
		if !json.Valid(r.body) {
			t.Errorf("client %d: incomplete JSON body: %q", i, r.body)
		}
		if r.status == http.StatusServiceUnavailable {
			got503++
		}
	}
	if got503 == 0 {
		t.Error("no client saw the retryable 503; the drain window never expired under load")
	}
}

// TestShutdownCleanDrain pins the other half of the fix: when every
// request finishes inside the drain window, teardown must NOT hard-abort
// the scheduled paths (the old code called CloseNow even after a clean
// drain) — the graceful close path runs and shutdownServer reports nil.
func TestShutdownCleanDrain(t *testing.T) {
	closedNow := false
	cl := testCluster(t, heterosw.ClusterOptions{
		Devices: []heterosw.DeviceKind{heterosw.DeviceXeon},
		Dist:    "static",
	})
	srv, base := startServer(t, cl)

	resp, err := http.Post(base+"/search", "application/json",
		strings.NewReader(`{"id":"q","residues":"MKWVTFISLLLLFSSAYSRGV"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up search: status %d", resp.StatusCode)
	}

	err = shutdownServer(srv, 10*time.Second, cl.Close, func() { closedNow = true; cl.CloseNow() })
	if err != nil {
		t.Fatalf("shutdownServer: %v", err)
	}
	if closedNow {
		t.Fatal("clean drain must not hard-abort the scheduled paths")
	}
}
