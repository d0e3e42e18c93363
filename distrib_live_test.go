package heterosw

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/remote"
	"heterosw/internal/remote/faultproxy"
)

// The live-topology soak harness: a coordinator over fault-proxied nodes
// is driven through node death, failover, recovery and readoption with
// the background prober disabled (ProbeInterval -1) and every sweep
// triggered explicitly — so each phase transition is a deterministic
// program step, not a timing race. The invariant under test is the
// conformance guarantee extended over failures: as long as at least one
// live replica serves every shard, every query answers byte-identically
// to a single-node search; when a shard loses its last replica, the
// failure is the typed, retryable remote.ErrNoReplicas, never a wrong or
// torn result.

// liveDistribOptions is fastDistribOptions with the background prober
// disabled and a 2-failure death threshold, so tests step the state
// machine by explicit ProbeNodes calls.
func liveDistribOptions() DistributedOptions {
	opt := fastDistribOptions()
	opt.ProbeInterval = -1
	opt.ProbeDeadAfter = 2
	return opt
}

// proxiedShardNode starts a shard node serving the given shard files and
// wraps it in a fault proxy; coordinators address the proxy URL.
func proxiedShardNode(t testing.TB, shardPaths []string) *faultproxy.Proxy {
	t.Helper()
	srv, _ := startShardNode(t, shardPaths, nil)
	px, err := faultproxy.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	return px
}

// refCanon computes the single-node reference canon bytes per query.
func refCanon(t testing.TB, parentPath string, queries []Sequence, rep ReportOptions) [][]byte {
	t.Helper()
	refDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(refDB, distribOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.CloseNow()
	want := make([][]byte, len(queries))
	for i, q := range queries {
		res, err := ref.Search(q, rep)
		if err != nil {
			t.Fatalf("reference Search(%s): %v", q.ID(), err)
		}
		want[i] = canonDistrib(t, res)
	}
	return want
}

// nodeState reads one node's state string out of a topology snapshot.
func nodeState(t testing.TB, topo *TopologyInfo, url string) string {
	t.Helper()
	for _, n := range topo.Nodes {
		if n.URL == url {
			return n.State
		}
	}
	t.Fatalf("node %s not in topology %+v", url, topo)
	return ""
}

// TestCoordinatorLiveTopologySoak is the tentpole soak: kill a node mid
// sequence — zero failed queries, every result byte-identical via the
// replicas; probe it dead — its shards fail over; kill the last replica
// of a shard — typed retryable failure, /healthz degraded; restore —
// re-probe readopts everything and results are again byte-identical.
func TestCoordinatorLiveTopologySoak(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)
	rep := ReportOptions{Alignments: true, EValues: true, TopK: 5}
	want := refCanon(t, parentPath, queries, rep)

	pxA := proxiedShardNode(t, shardPaths) // both shards
	pxB := proxiedShardNode(t, shardPaths[:1])
	pxC := proxiedShardNode(t, shardPaths[1:])

	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath,
		[]string{pxA.URL(), pxB.URL(), pxC.URL()}, liveDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()
	ctx := context.Background()

	checkAll := func(phase string) {
		t.Helper()
		for i, q := range queries {
			res, err := coord.Search(q, rep)
			if err != nil {
				t.Fatalf("%s: Search(%s): %v", phase, q.ID(), err)
			}
			if got := canonDistrib(t, res); !bytes.Equal(got, want[i]) {
				t.Fatalf("%s: query %s diverged from single-node:\nwant %s\ngot  %s", phase, q.ID(), want[i], got)
			}
		}
	}

	// Phase 1 — everything healthy.
	checkAll("healthy")
	topo := coord.Topology()
	if topo.Generation != 1 || len(topo.Shards) != 2 || len(topo.Nodes) != 3 {
		t.Fatalf("initial topology: %+v", topo)
	}
	for _, px := range []*faultproxy.Proxy{pxA, pxB, pxC} {
		if s := nodeState(t, topo, px.URL()); s != "healthy" {
			t.Fatalf("node %s state %s after construction probe, want healthy", px.URL(), s)
		}
	}
	// Replica order pins the conformance routing: A leads both shards.
	if r := topo.Shards[0].Replicas; len(r) != 2 || r[0] != pxA.URL() || r[1] != pxB.URL() {
		t.Fatalf("shard 0 replicas %v, want [A B]", r)
	}
	if r := topo.Shards[1].Replicas; len(r) != 2 || r[0] != pxA.URL() || r[1] != pxC.URL() {
		t.Fatalf("shard 1 replicas %v, want [A C]", r)
	}

	// Phase 2 — node A dies, not yet probed out: every request's first
	// attempt hits the corpse and the retry answers from the replica.
	// Zero failed queries, still byte-identical.
	pxA.SetDown(true)
	checkAll("A down, pre-probe")

	// Phase 3 — two sweeps (ProbeDeadAfter) mark A dead; its shards fail
	// over, so requests no longer touch it at all.
	if err := coord.ProbeNodes(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.ProbeNodes(ctx); err != nil {
		t.Fatal(err)
	}
	topo = coord.Topology()
	if s := nodeState(t, topo, pxA.URL()); s != "dead" {
		t.Fatalf("A after %d failed sweeps: %s, want dead", 2, s)
	}
	if r := topo.Shards[0].Replicas; len(r) != 1 || r[0] != pxB.URL() {
		t.Fatalf("shard 0 failed over to %v, want [B]", r)
	}
	if r := topo.Shards[1].Replicas; len(r) != 1 || r[0] != pxC.URL() {
		t.Fatalf("shard 1 failed over to %v, want [C]", r)
	}
	checkAll("A dead, failed over")

	// Phase 4 — B dies too: shard 0 is uncovered. The failure is typed
	// and retryable, and /healthz reports degraded.
	pxB.SetDown(true)
	if err := coord.ProbeNodes(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.ProbeNodes(ctx); err != nil {
		t.Fatal(err)
	}
	topo = coord.Topology()
	if !topo.Uncovered() {
		t.Fatalf("shard 0 with both owners dead must be uncovered: %+v", topo.Shards)
	}
	_, err = coord.Search(queries[0], rep)
	if !errors.Is(err, remote.ErrNoReplicas) {
		t.Fatalf("uncovered shard: err = %v, want remote.ErrNoReplicas", err)
	}
	if !remote.Retryable(err) {
		t.Fatalf("uncovered-shard failure must stay retryable: %v", err)
	}

	// Phase 5 — restore both; one clean sweep readopts them, the replica
	// sets refill in preference order, and conformance holds again.
	pxA.SetDown(false)
	pxB.SetDown(false)
	if err := coord.ProbeNodes(ctx); err != nil {
		t.Fatal(err)
	}
	topo = coord.Topology()
	for _, px := range []*faultproxy.Proxy{pxA, pxB, pxC} {
		if s := nodeState(t, topo, px.URL()); s != "healthy" {
			t.Fatalf("restored node %s state %s, want healthy", px.URL(), s)
		}
	}
	if r := topo.Shards[0].Replicas; len(r) != 2 || r[0] != pxA.URL() {
		t.Fatalf("readopted shard 0 replicas %v, want A leading", r)
	}
	checkAll("restored")
}

// TestCoordinatorScriptedFaultSchedule drives one query's two-shard
// fan-out through a scripted burst of every fault class — 503, truncated
// body, half-close, dropped connection, two of each so both shard
// streams see faults under any interleaving — and requires the final
// result byte-identical to single-node. The schedule is attempt-keyed:
// no sleeps, no randomness, identical under -race and -count=20.
func TestCoordinatorScriptedFaultSchedule(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)
	rep := ReportOptions{Alignments: true, EValues: true, TopK: 5}
	want := refCanon(t, parentPath, queries[:1], rep)

	px := proxiedShardNode(t, shardPaths) // one node, both shards
	px.Match(func(r *http.Request) bool { return r.URL.Path == "/shard/search" })
	px.Program(
		faultproxy.Step{Act: faultproxy.Unavailable},
		faultproxy.Step{Act: faultproxy.Unavailable},
		faultproxy.Step{Act: faultproxy.Truncate, Bytes: 8},
		faultproxy.Step{Act: faultproxy.Truncate, Bytes: 8},
		faultproxy.Step{Act: faultproxy.HalfClose},
		faultproxy.Step{Act: faultproxy.HalfClose},
		faultproxy.Step{Act: faultproxy.Drop},
		faultproxy.Step{Act: faultproxy.Drop},
	)

	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	opt := liveDistribOptions()
	// 8 scripted faults across two shard streams: under the worst
	// interleaving one stream absorbs all 8 before its first success, so
	// the budget must cover that and the outcome stays deterministic.
	opt.Retries = 8
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{px.URL()}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()

	res, err := coord.Search(queries[0], rep)
	if err != nil {
		t.Fatalf("search through the fault schedule: %v", err)
	}
	if got := canonDistrib(t, res); !bytes.Equal(got, want[0]) {
		t.Fatalf("faulted result diverged from single-node:\nwant %s\ngot  %s", want[0], got)
	}
	// Every scripted fault was consumed, then both streams passed: 10
	// matched attempts exactly, whatever the interleaving.
	counts := map[faultproxy.Action]int{}
	for _, a := range px.Log() {
		counts[a]++
	}
	wantCounts := map[faultproxy.Action]int{
		faultproxy.Unavailable: 2,
		faultproxy.Truncate:    2,
		faultproxy.HalfClose:   2,
		faultproxy.Drop:        2,
		faultproxy.Pass:        2,
	}
	for act, n := range wantCounts {
		if counts[act] != n {
			t.Fatalf("fault log %v: %d x %s, want %d", px.Log(), counts[act], act, n)
		}
	}
}

// frontSearch posts one aligned, E-valued /search of q through
// NewHTTPHandler(c) and returns the status and the body, re-encoded with
// wall_seconds zeroed when the status is 200.
func frontSearch(t *testing.T, c *Cluster, q Sequence) (int, []byte) {
	t.Helper()
	ts := httptest.NewServer(NewHTTPHandler(c))
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/search", map[string]any{
		"residues": q.String(), "top_k": 5, "align": true, "evalue": true,
	})
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, body
	}
	var sr SearchJSON
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding /search: %v: %s", err, body)
	}
	sr.WallSeconds = 0
	out, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	return http.StatusOK, out
}

// badAnswerCoordinator builds a coordinator over two proxied nodes that
// each serve both shards. Each proxy's script applies to /shard/search
// only. It also returns the single-node /search answer to queries[0].
func badAnswerCoordinator(t *testing.T) (coord *Cluster, pxA, pxB *faultproxy.Proxy, want []byte, q Sequence) {
	t.Helper()
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)
	refDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(refDB, distribOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.CloseNow()
	code, want := frontSearch(t, ref, queries[0])
	if code != http.StatusOK {
		t.Fatalf("single-node /search: %d %s", code, want)
	}

	pxA, pxB = proxiedShardNode(t, shardPaths), proxiedShardNode(t, shardPaths)
	for _, px := range []*faultproxy.Proxy{pxA, pxB} {
		px.Match(func(r *http.Request) bool { return r.URL.Path == "/shard/search" })
	}
	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err = NewDistributedCluster(context.Background(), parentDB, manifestPath,
		[]string{pxA.URL(), pxB.URL()}, liveDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.CloseNow)
	return coord, pxA, pxB, want, queries[0]
}

// TestCoordinatorBadAnswerFailsOver pins that a replica answering 200
// with a body that fails to decode, or decodes to the wrong number of
// scores, is a failed replica: both shards' searches reach node A first,
// fail over to node B, and /search answers the single-node bytes.
func TestCoordinatorBadAnswerFailsOver(t *testing.T) {
	coord, pxA, pxB, want, q := badAnswerCoordinator(t)
	pxA.Program(
		faultproxy.Step{Act: faultproxy.Rewrite, Body: `{"scores":"BwiA"}`}, // a truncated varint
		faultproxy.Step{Act: faultproxy.Rewrite, Body: `{"scores":"Bwg="}`}, // two scores
	)
	code, got := frontSearch(t, coord, q)
	if code != http.StatusOK {
		t.Fatalf("/search past a bad replica: %d %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failed-over answer diverged from single-node:\nwant %s\ngot  %s", want, got)
	}
	if a, b := pxA.Attempts(), pxB.Attempts(); a != 2 || b != 2 {
		t.Fatalf("shard searches: %d to A and %d to B, want one per shard on each", a, b)
	}
}

// TestCoordinatorBadAnswerEverywhere pins that a shard whose every
// replica answers badly through the whole retry budget answers the
// retryable 503, as a shard with no live replica does.
func TestCoordinatorBadAnswerEverywhere(t *testing.T) {
	coord, pxA, pxB, _, q := badAnswerCoordinator(t)
	bad := make([]faultproxy.Step, 8)
	for i := range bad {
		bad[i] = faultproxy.Step{Act: faultproxy.Rewrite, Body: `{"scores":"BwiA"}`}
	}
	pxA.Program(bad...)
	pxB.Program(bad...)
	if code, body := frontSearch(t, coord, q); code != http.StatusServiceUnavailable {
		t.Fatalf("/search with every replica answering badly: %d %s, want 503", code, body)
	}
}

// TestCoordinatorRefusedEverywhere pins that a shard whose every replica
// refuses connections answers 503 once the retry budget is spent.
func TestCoordinatorRefusedEverywhere(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)
	nodeA, _ := startShardNode(t, shardPaths, nil)
	nodeB, _ := startShardNode(t, shardPaths, nil)
	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath,
		[]string{nodeA.URL, nodeB.URL}, liveDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()
	// Both die after discovery; with the prober's loop off they stay
	// routed, so every attempt is refused.
	nodeA.Close()
	nodeB.Close()
	if code, body := frontSearch(t, coord, queries[0]); code != http.StatusServiceUnavailable {
		t.Fatalf("/search with every replica refusing connections: %d %s, want 503", code, body)
	}
}

// TestCoordinatorTopologyRacesQueries runs a concurrent query load while
// a node is repeatedly killed, probed out, revived and readopted. Every
// query must succeed byte-identically — node A covers both shards
// throughout, so the churn on node C must never surface to a caller —
// and the -race build must stay silent over the topology swaps.
func TestCoordinatorTopologyRacesQueries(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)
	rep := ReportOptions{Alignments: true, EValues: true, TopK: 5}
	want := refCanon(t, parentPath, queries, rep)

	pxA := proxiedShardNode(t, shardPaths) // both shards, always up
	pxC := proxiedShardNode(t, shardPaths[1:])

	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath,
		[]string{pxA.URL(), pxC.URL()}, liveDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()

	workers, perWorker, churns := 4, 6, 8
	if testing.Short() {
		workers, perWorker, churns = 2, 3, 3
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				qi := (w + i) % len(queries)
				res, err := coord.Search(queries[qi], rep)
				if err != nil {
					errc <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
				if got := canonDistrib(t, res); !bytes.Equal(got, want[qi]) {
					errc <- fmt.Errorf("worker %d query %d: result diverged under churn", w, i)
					return
				}
			}
		}(w)
	}
	ctx := context.Background()
	for i := 0; i < churns; i++ {
		pxC.SetDown(true)
		if err := coord.ProbeNodes(ctx); err != nil {
			t.Fatal(err)
		}
		if err := coord.ProbeNodes(ctx); err != nil {
			t.Fatal(err)
		}
		pxC.SetDown(false)
		if err := coord.ProbeNodes(ctx); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// After the final revival sweep the churned node must be readopted.
	if s := nodeState(t, coord.Topology(), pxC.URL()); s != "healthy" {
		t.Fatalf("churned node finished %s, want healthy", s)
	}
}

// TestCoordinatorConstructionProbeFailureText pins the construction
// diagnostics through the concurrent prober: an unreachable node folds
// its probe failure into the unowned-shard error, URL and all.
func TestCoordinatorConstructionProbeFailureText(t *testing.T) {
	parentPath, manifestPath, shardPaths, _ := distribSetup(t)
	pxB := proxiedShardNode(t, shardPaths[:1]) // shard 0 only
	pxDead := proxiedShardNode(t, shardPaths[1:])
	pxDead.SetDown(true) // shard 1's only owner is unreachable

	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewDistributedCluster(context.Background(), parentDB, manifestPath,
		[]string{pxB.URL(), pxDead.URL()}, liveDistribOptions())
	if err == nil {
		t.Fatal("construction with shard 1 unowned must fail")
	}
	msg := err.Error()
	if !bytes.Contains([]byte(msg), []byte("no node serves shard")) {
		t.Fatalf("error should name the unowned shard, got: %v", err)
	}
	if !bytes.Contains([]byte(msg), []byte("node probe(s) failed")) ||
		!bytes.Contains([]byte(msg), []byte(pxDead.URL())) {
		t.Fatalf("error should fold in the failed probe with its URL, got: %v", err)
	}
}

// TestCoordinatorTracebacksOnCoordinator pins that a coordinator traces
// back its hits itself, over the parent index it maps: an aligned,
// E-valued /search sends each node one /shard/search per shard and
// nothing else, answers the single-node bytes, and counts the tracebacks
// in its /healthz. The kernel-score check still guards the tracebacks: a
// node whose score list puts its top score a point above or below the
// truth fails the request with 500 naming the disagreement, never a 200
// carrying the wrong score or a path aligned to another cell.
func TestCoordinatorTracebacksOnCoordinator(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)
	q := queries[0]
	refDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(refDB, distribOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.CloseNow()
	code, want := frontSearch(t, ref, q)
	if code != http.StatusOK {
		t.Fatalf("single-node /search: %d %s", code, want)
	}

	pxs := []*faultproxy.Proxy{
		proxiedShardNode(t, shardPaths[:1]),
		proxiedShardNode(t, shardPaths[1:]),
	}
	var routes routeLog
	for _, px := range pxs {
		routes.watch(t, px)
	}
	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	// Without a result cache the second search below reaches the nodes.
	opt := liveDistribOptions()
	opt.CacheSize = -1
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath,
		[]string{pxs[0].URL(), pxs[1].URL()}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()

	code, got := frontSearch(t, coord, q)
	if code != http.StatusOK {
		t.Fatalf("coordinator /search: %d %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator answer diverged from single-node:\nwant %s\ngot  %s", want, got)
	}
	searched := map[string]int{}
	for _, r := range routes.take() {
		if r.path != "/shard/search" {
			t.Fatalf("%s sent to %s: tracebacks must run on the coordinator", r.path, r.node)
		}
		searched[r.node]++
	}
	for _, px := range pxs {
		if searched[px.URL()] != 1 {
			t.Fatalf("%d /shard/search requests to %s, want 1", searched[px.URL()], px.URL())
		}
	}
	// The coordinator's /healthz counts the tracebacks it ran: the top 5.
	ts := httptest.NewServer(NewHTTPHandler(coord))
	defer ts.Close()
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthJSON
	err = json.NewDecoder(hres.Body).Decode(&h)
	hres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Tracebacks != 5 {
		t.Fatalf("coordinator /healthz counts %d tracebacks after an aligned top-5 search, want 5", h.Tracebacks)
	}

	// Ask each node for its shard's true scores, and pick the shard
	// holding the planted query's best hit: its top score raised by one
	// is certain to be the top hit the coordinator traces back.
	best, bestScore := 0, int32(-1)
	truth := make([]remote.ShardSearchResponse, len(pxs))
	for i, sh := range coord.Topology().Shards {
		resp, body := postJSON(t, pxs[i].URL()+"/shard/search", remote.ShardSearchRequest{
			Shard: sh.Key, ID: q.ID(), Codes: alphabet.BytesView(q.impl.Residues),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/shard/search on %s: %d %s", pxs[i].URL(), resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &truth[i]); err != nil {
			t.Fatal(err)
		}
		if top := slices.Max(truth[i].Scores); top > bestScore {
			best, bestScore = i, top
		}
	}
	routes.take()
	top := slices.Index(truth[best].Scores, bestScore)
	for _, delta := range []int32{+1, -1} {
		lie := truth[best]
		lie.Scores = slices.Clone(lie.Scores)
		lie.Scores[top] += delta
		body, err := json.Marshal(lie)
		if err != nil {
			t.Fatal(err)
		}
		pxs[best].Program(faultproxy.Step{Act: faultproxy.Rewrite, Body: string(body)})
		code, got = frontSearch(t, coord, q)
		if code != http.StatusInternalServerError || !strings.Contains(string(got), "disagrees with kernel score") {
			t.Fatalf("/search over a top score %+d off the truth: %d %s, want 500 naming the traceback-score disagreement", delta, code, got)
		}
	}
}

// routeLog records every shard request a set of fault proxies receives:
// the node it reached, the endpoint and the shard key from its body.
type routeLog struct {
	mu sync.Mutex
	//sw:guardedBy(mu)
	reqs []routedRequest
}

type routedRequest struct{ node, path, shard string }

// watch makes px log each request under /shard/ it receives, before
// the proxy's script acts on it. The body is read for
// its shard key and put back, so the request is forwarded unchanged.
// Every request, probes included, matches px's script.
func (l *routeLog) watch(t testing.TB, px *faultproxy.Proxy) {
	node := px.URL()
	px.Match(func(r *http.Request) bool {
		if !strings.HasPrefix(r.URL.Path, "/shard/") {
			return true
		}
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("%s: reading %s body: %v", node, r.URL.Path, err)
			return true
		}
		r.Body = io.NopCloser(bytes.NewReader(raw))
		var body struct {
			Shard string `json:"shard"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Errorf("%s: decoding %s body: %v", node, r.URL.Path, err)
		}
		l.mu.Lock()
		l.reqs = append(l.reqs, routedRequest{node: node, path: r.URL.Path, shard: body.Shard})
		l.mu.Unlock()
		return true
	})
}

// take returns and clears the log.
func (l *routeLog) take() []routedRequest {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.reqs
	l.reqs = nil
	return out
}

// TestCoordinatorRoutesFromProber pins that the replicas Topology reports
// are the ones requests use: at every step of a failover, a readoption
// and a reload, each shard request goes first to the first URL of its
// shard's Topology().Shards[i].Replicas. A "down" node answers every
// request 503 (probes fail, shard requests retry elsewhere) but still
// logs the shard requests it is sent, so a request routed to it first
// shows up in the log; up nodes fail nothing, so every request they log
// is the first attempt of its call.
func TestCoordinatorRoutesFromProber(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)
	dir3 := t.TempDir()
	manifest3, err := SplitIndexFile(parentPath, 3, dir3, "re")
	if err != nil {
		t.Fatal(err)
	}
	cut3, err := os.ReadFile(manifest3)
	if err != nil {
		t.Fatal(err)
	}
	re := func(i int) string { return filepath.Join(dir3, fmt.Sprintf("re-%02d.swdb", i)) }

	// A serves the whole 2-way cut and re-00; B and C one 2-way shard
	// each, B re-01 and re-02, C re-02 — so every phase below puts a
	// different mix of nodes first.
	pxA := proxiedShardNode(t, []string{shardPaths[0], shardPaths[1], re(0)})
	pxB := proxiedShardNode(t, []string{shardPaths[0], re(1), re(2)})
	pxC := proxiedShardNode(t, []string{shardPaths[1], re(2)})
	var routes routeLog
	for _, px := range []*faultproxy.Proxy{pxA, pxB, pxC} {
		routes.watch(t, px)
	}
	A, B, C := pxA.URL(), pxB.URL(), pxC.URL()
	down := make([]faultproxy.Step, 256)
	for i := range down {
		down[i] = faultproxy.Step{Act: faultproxy.Unavailable}
	}

	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath,
		[]string{A, B, C}, liveDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()
	ctx := context.Background()
	rep := ReportOptions{Alignments: true, TopK: 5}

	// check compares Topology's replica lists with want (one list per
	// shard), then runs every query and requires each shard request to
	// reach the first replica of its shard, and nothing else.
	check := func(phase string, want ...[]string) {
		t.Helper()
		topo := coord.Topology()
		if len(topo.Shards) != len(want) {
			t.Fatalf("%s: %d shards, want %d", phase, len(topo.Shards), len(want))
		}
		first := make(map[string]string, len(want))
		for i, sh := range topo.Shards {
			if !slices.Equal(sh.Replicas, want[i]) {
				t.Fatalf("%s: shard %d replicas %v, want %v", phase, i, sh.Replicas, want[i])
			}
			first[sh.Key] = sh.Replicas[0]
		}
		routes.take()
		for _, q := range queries {
			if _, err := coord.Search(q, rep); err != nil {
				t.Fatalf("%s: Search(%s): %v", phase, q.ID(), err)
			}
		}
		searched := map[string]int{}
		for _, r := range routes.take() {
			if r.node != first[r.shard] {
				t.Fatalf("%s: %s for shard %s went to %s, Topology puts %s first",
					phase, r.path, r.shard, r.node, first[r.shard])
			}
			if r.path == "/shard/search" {
				searched[r.shard]++
			}
		}
		for key := range first {
			if searched[key] != len(queries) {
				t.Fatalf("%s: shard %s searched %d times for %d queries", phase, key, searched[key], len(queries))
			}
		}
	}

	check("construction", []string{A, B}, []string{A, C})

	pxA.Program(down...)
	if err := coord.ProbeNodes(ctx); err != nil {
		t.Fatal(err)
	}
	check("A degraded", []string{B, A}, []string{C, A})
	if err := coord.ProbeNodes(ctx); err != nil {
		t.Fatal(err)
	}
	check("A dead", []string{B}, []string{C})

	pxA.Program()
	if err := coord.ProbeNodes(ctx); err != nil {
		t.Fatal(err)
	}
	check("A readopted", []string{A, B}, []string{A, C})

	if err := os.WriteFile(manifestPath, cut3, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := coord.ReloadManifest(ctx); err != nil {
		t.Fatalf("reload onto the 3-way cut: %v", err)
	}
	check("reloaded", []string{A}, []string{B}, []string{B, C})
}
