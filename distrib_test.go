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
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"heterosw/internal/datagen"
)

// The distributed conformance and failure-mode harness: a coordinator
// over swserve shard nodes must be indistinguishable — modulo host wall
// times and per-backend accounting — from a single-node search of the
// unsplit database, and node failures at every stage (fan-out, mid-query,
// slow replica) must degrade to retried or hedged success, never to an
// error surfaced to the caller.

// distribOpts is the kernel configuration shared by the reference
// cluster, every shard node and the coordinator — the operator contract
// the README documents.
func distribOpts() ClusterOptions {
	return ClusterOptions{
		Options: Options{},
		Devices: []DeviceKind{DeviceXeon},
		Dist:    "static",
	}
}

// distribSetup builds the corpus once: a parent .swdb, its 2-shard split
// and the manifest. Returns the parent index path, the manifest path and
// the shard file paths.
func distribSetup(t testing.TB) (parentPath, manifestPath string, shardPaths []string, queries []Sequence) {
	t.Helper()
	dir := t.TempDir()
	seqs := wrapSeqs(datagen.Generate(datagen.Config{
		Sequences: 96, Seed: 4242, MeanLen: 90, SigmaLog: 0.5, MaxLen: 4000,
	}))
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	parentPath = filepath.Join(dir, "parent.swdb")
	if err := WriteIndexFile(parentPath, db); err != nil {
		t.Fatal(err)
	}
	manifestPath, err = SplitIndexFile(parentPath, 2, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	shardPaths = []string{
		filepath.Join(dir, "parent-00.swdb"),
		filepath.Join(dir, "parent-01.swdb"),
	}
	donor := seqs[48].String()
	if len(donor) > 64 {
		donor = donor[:64]
	}
	queries = []Sequence{
		NewSequence("planted", donor),
		NewSequence("random", "MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPF"),
	}
	return parentPath, manifestPath, shardPaths, queries
}

// startShardNode serves the given shard files from one in-process node.
// wrap, when non-nil, decorates the node handler (fault injection).
func startShardNode(t testing.TB, shardPaths []string, wrap func(http.Handler) http.Handler) (*httptest.Server, *ShardServer) {
	t.Helper()
	clusters := make([]*Cluster, len(shardPaths))
	for i, p := range shardPaths {
		sdb, err := OpenIndexFile(p)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewCluster(sdb, distribOpts())
		if err != nil {
			t.Fatal(err)
		}
		clusters[i] = cl
	}
	ss, err := NewShardServer(clusters)
	if err != nil {
		t.Fatal(err)
	}
	h := ss.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		ss.CloseNow()
	})
	return srv, ss
}

// fastDistribOptions is the coordinator tuning used by the failure-mode
// tests: tight timeouts so a dead node is detected in milliseconds.
func fastDistribOptions() DistributedOptions {
	return DistributedOptions{
		Timeout: 5 * time.Second,
		Retries: 2,
		Backoff: time.Millisecond,
	}
}

// canonDistrib canonicalises a result for cross-topology comparison: wall
// times legitimately differ between one local backend and N remote shards;
// scores, hits, alignments, significance and cell counts must not.
func canonDistrib(t testing.TB, res *ClusterResult) []byte {
	t.Helper()
	c := *res
	c.WallSeconds, c.WallGCUPS = 0, 0
	raw, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCoordinatorConformance pins the tentpole acceptance criterion: a
// coordinator over two loopback nodes holding the swindex-split halves
// of the database answers every query — scores, hits, E-values,
// alignments, and the rendered report — byte-identically to a
// single-node search of the unsplit database.
func TestCoordinatorConformance(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)

	nodeA, _ := startShardNode(t, shardPaths[:1], nil)
	nodeB, _ := startShardNode(t, shardPaths[1:], nil)

	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{nodeA.URL, nodeB.URL}, fastDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()

	refDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(refDB, distribOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.CloseNow()

	rep := ReportOptions{Alignments: true, EValues: true, TopK: 5}
	for _, q := range queries {
		want, err := ref.Search(q, rep)
		if err != nil {
			t.Fatalf("reference Search(%s): %v", q.ID(), err)
		}
		got, err := coord.Search(q, rep)
		if err != nil {
			t.Fatalf("coordinator Search(%s): %v", q.ID(), err)
		}
		if w, g := canonDistrib(t, want), canonDistrib(t, got); !bytes.Equal(w, g) {
			t.Errorf("query %s: coordinator result differs from single-node:\nwant %s\ngot  %s", q.ID(), w, g)
		}
		// The scheduled path must agree too (it is what swserve serves).
		sched, err := coord.Do(context.Background(), Request{Query: q, Report: rep})
		if err != nil {
			t.Fatalf("coordinator Do(%s): %v", q.ID(), err)
		}
		if w, g := canonDistrib(t, want), canonDistrib(t, sched); !bytes.Equal(w, g) {
			t.Errorf("query %s: scheduled coordinator result differs from single-node", q.ID())
		}
		// The rendered report carries no timing at all, so it must be
		// byte-identical with no canonicalisation.
		var wantRep, gotRep bytes.Buffer
		if err := WriteReport(&wantRep, q, refDB, want, 60); err != nil {
			t.Fatal(err)
		}
		if err := WriteReport(&gotRep, q, parentDB, got, 60); err != nil {
			t.Fatal(err)
		}
		if wantRep.String() != gotRep.String() {
			t.Errorf("query %s: rendered reports differ:\n--- single-node\n%s\n--- coordinator\n%s",
				q.ID(), wantRep.String(), gotRep.String())
		}
		// Cells must merge exactly: useful cells are sharding-independent.
		if want.Cells != got.Cells {
			t.Errorf("query %s: cells %d != single-node %d", q.ID(), got.Cells, want.Cells)
		}
	}
}

// TestCoordinatorRejectsRequestMatrix pins the distributed matrix
// contract: the shard wire carries query codes, not options, so nodes score
// under their own configured matrix and a coordinator cannot honour a
// request-scoped one. It refuses the request — ErrBadMatrix, HTTP 400 —
// rather than answer under the nodes' matrix as if it had applied the
// caller's.
func TestCoordinatorRejectsRequestMatrix(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)
	nodeA, _ := startShardNode(t, shardPaths[:1], nil)
	nodeB, _ := startShardNode(t, shardPaths[1:], nil)
	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{nodeA.URL, nodeB.URL}, fastDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()
	refDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(refDB, distribOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.CloseNow()

	ctx := context.Background()
	q := queries[1]
	matrix := matchOnlyMatrix(9, "match-only")
	top := ReportOptions{TopK: 1}
	// The premise: the matrix changes this query's answer on one node.
	custom, err := ref.Do(ctx, Request{Query: q, Matrix: matrix, Report: top})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ref.Do(ctx, Request{Query: q, Report: top})
	if err != nil {
		t.Fatal(err)
	}
	if custom.Hits[0].Score == plain.Hits[0].Score {
		t.Fatalf("the matrix leaves the top score at %d; the test proves nothing", plain.Hits[0].Score)
	}

	if _, err := coord.Do(ctx, Request{Query: q, Matrix: matrix, Report: top}); !errors.Is(err, ErrBadMatrix) {
		t.Fatalf("coordinator Do with a request matrix: err = %v, want ErrBadMatrix", err)
	}
	ts := httptest.NewServer(NewHTTPHandler(coord))
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/search", map[string]any{"residues": q.String(), "matrix": matrix, "top_k": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("coordinator POST /search with a matrix: status %d (%s), want 400", resp.StatusCode, body)
	}
	// Without the matrix the coordinator answers as the single node does.
	resp, body = postJSON(t, ts.URL+"/search", map[string]any{"residues": q.String(), "top_k": 1})
	var sr SearchJSON
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &sr) != nil || len(sr.Hits) != 1 || sr.Hits[0].Score != plain.Hits[0].Score {
		t.Fatalf("coordinator POST /search: status %d: %s, want the single node's top score %d", resp.StatusCode, body, plain.Hits[0].Score)
	}
}

// TestCoordinatorNodeDownAtFanout pins fan-out degradation: both nodes
// replicate both shards, one node dies after discovery, and every
// request retries over to the survivor — no error reaches the caller.
func TestCoordinatorNodeDownAtFanout(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)

	nodeA, _ := startShardNode(t, shardPaths, nil) // replicates both shards
	nodeB, _ := startShardNode(t, shardPaths, nil)

	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{nodeA.URL, nodeB.URL}, fastDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()

	// Kill the primary after discovery, before any query.
	nodeA.Close()

	res, err := coord.Search(queries[0])
	if err != nil {
		t.Fatalf("search with a dead primary must retry to the replica, got: %v", err)
	}
	if len(res.Hits) == 0 || res.Hits[0].Score <= 0 {
		t.Fatalf("degraded search returned no hits: %+v", res.Hits)
	}
}

// TestCoordinatorNodeDiesMidQuery pins mid-flight death: the primary
// accepts the search request and then aborts the connection; the
// transport failure is retryable, so the retry (to the replica) answers.
func TestCoordinatorNodeDiesMidQuery(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)

	var aborted atomic.Int64
	dying, _ := startShardNode(t, shardPaths, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shard/search" {
				aborted.Add(1)
				panic(http.ErrAbortHandler) // die mid-request: torn connection
			}
			next.ServeHTTP(w, r)
		})
	})
	healthy, _ := startShardNode(t, shardPaths, nil)

	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{dying.URL, healthy.URL}, fastDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()

	res, err := coord.Search(queries[0])
	if err != nil {
		t.Fatalf("search through a node dying mid-query must retry, got: %v", err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("degraded search returned no hits")
	}
	if aborted.Load() == 0 {
		t.Fatal("fault was never injected; the test proved nothing")
	}
}

// TestCoordinatorRetryThenSuccess pins the 503 retry path end to end:
// the primary answers 503 (draining) for its first search, then recovers;
// the coordinator's retry lands on the replica (or the recovered
// primary) and the caller sees clean success.
func TestCoordinatorRetryThenSuccess(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)

	var searches atomic.Int64
	flaky, _ := startShardNode(t, shardPaths, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shard/search" && searches.Add(1) == 1 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"error":"draining"}`)
				return
			}
			next.ServeHTTP(w, r)
		})
	})

	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{flaky.URL}, fastDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()

	res, err := coord.Search(queries[0])
	if err != nil {
		t.Fatalf("search through a briefly-draining node must retry, got: %v", err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("retried search returned no hits")
	}
	if searches.Load() < 2 {
		t.Fatalf("node saw %d searches; the 503 was never retried", searches.Load())
	}
}

// TestCoordinatorHedgeSlowReplica pins tail-latency hedging: the primary
// replica stalls, the hedge fires to the second replica, the winner's
// answer is used and the stalled loser observes cancellation.
func TestCoordinatorHedgeSlowReplica(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)

	loserCancelled := make(chan struct{}, 16)
	slow, _ := startShardNode(t, shardPaths, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shard/search" {
				// Stall until the hedge winner cancels us. Drain the body
				// first so net/http watches for the disconnect.
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				loserCancelled <- struct{}{}
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	fast, _ := startShardNode(t, shardPaths, nil)

	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	opt := fastDistribOptions()
	opt.Retries = -1 // isolate hedging from retries
	opt.HedgeDelay = 5 * time.Millisecond
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{slow.URL, fast.URL}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()

	res, err := coord.Search(queries[0])
	if err != nil {
		t.Fatalf("hedged search over a stalled primary must win via the replica, got: %v", err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("hedged search returned no hits")
	}
	select {
	case <-loserCancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled loser was never cancelled")
	}
}

// BenchmarkCoordinatorLoopback measures a coordinator fanning one query
// out to two loopback shard nodes — wire encoding, HTTP round trips and
// the score merge included. Search (not Do) is used so the LRU cache
// cannot short-circuit repeated queries.
func BenchmarkCoordinatorLoopback(b *testing.B) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(b)
	nodeA, _ := startShardNode(b, shardPaths[:1], nil)
	nodeB, _ := startShardNode(b, shardPaths[1:], nil)
	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		b.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{nodeA.URL, nodeB.URL}, fastDistribOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer coord.CloseNow()

	q := queries[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Search(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkCoordinatorSingleNode is the in-process baseline for
// BenchmarkCoordinatorLoopback: the same corpus and query through one
// local cluster, so the delta is the distribution overhead.
func BenchmarkCoordinatorSingleNode(b *testing.B) {
	parentPath, _, _, queries := distribSetup(b)
	refDB, err := OpenIndexFile(parentPath)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := NewCluster(refDB, distribOpts())
	if err != nil {
		b.Fatal(err)
	}
	defer ref.CloseNow()

	q := queries[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Search(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// TestCoordinatorRejectsWrongParent pins the identity check: a manifest
// cut from a different database must be refused at construction.
func TestCoordinatorRejectsWrongParent(t *testing.T) {
	_, manifestPath, shardPaths, _ := distribSetup(t)
	node, _ := startShardNode(t, shardPaths, nil)

	otherSeqs := wrapSeqs(datagen.Generate(datagen.Config{
		Sequences: 64, Seed: 99, MeanLen: 80, SigmaLog: 0.4, MaxLen: 2000,
	}))
	otherDB, err := NewDatabase(otherSeqs)
	if err != nil {
		t.Fatal(err)
	}
	otherPath := filepath.Join(t.TempDir(), "other.swdb")
	if err := WriteIndexFile(otherPath, otherDB); err != nil {
		t.Fatal(err)
	}
	wrong, err := OpenIndexFile(otherPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDistributedCluster(context.Background(), wrong, manifestPath, []string{node.URL}, fastDistribOptions()); err == nil {
		t.Fatal("a coordinator over the wrong parent database must be refused")
	} else if !strings.Contains(err.Error(), "manifest parent") {
		t.Fatalf("refusal should name the key mismatch, got: %v", err)
	}
}

// TestCoordinatorUnownedShard pins the coverage check: if no probed node
// serves some manifest shard, construction fails loudly instead of
// silently dropping those sequences from every result.
func TestCoordinatorUnownedShard(t *testing.T) {
	parentPath, manifestPath, shardPaths, _ := distribSetup(t)
	nodeA, _ := startShardNode(t, shardPaths[:1], nil) // serves only shard 0

	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{nodeA.URL}, fastDistribOptions())
	if err == nil {
		t.Fatal("a shard nobody serves must fail construction")
	}
	if !strings.Contains(err.Error(), "no node serves shard") {
		t.Fatalf("error should name the unowned shard, got: %v", err)
	}
}
