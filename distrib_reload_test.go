package heterosw

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"heterosw/internal/datagen"
	"heterosw/internal/remote/faultproxy"
)

// Manifest hot-reload: the coordinator re-reads its manifest (SIGHUP /
// POST /admin/reload) and swaps the serving topology onto a re-cut shard
// layout without restarting — with temp+rename discipline: the incoming
// manifest is validated and built into a complete engine before anything
// is published, a failed reload leaves the old topology serving, and
// in-flight queries hold the engine they started with, so a reload never
// tears a response.

// reloadSetup builds a parent database with TWO shard cuts (2-way and
// 3-way), one node serving every shard file of both cuts behind a fault
// proxy (pass-through until a test programs it), and a coordinator
// constructed on the 2-way manifest. Reloading is then just overwriting
// the manifest file in place with either cut's content.
func reloadSetup(t *testing.T) (coord *Cluster, manifestPath string, cut2, cut3 []byte, queries []Sequence, want [][]byte, px *faultproxy.Proxy) {
	t.Helper()
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)
	dir3 := t.TempDir()
	manifest3, err := SplitIndexFile(parentPath, 3, dir3, "re")
	if err != nil {
		t.Fatal(err)
	}
	cut2, err = os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	cut3, err = os.ReadFile(manifest3)
	if err != nil {
		t.Fatal(err)
	}
	allShards := append(append([]string(nil), shardPaths...),
		filepath.Join(dir3, "re-00.swdb"),
		filepath.Join(dir3, "re-01.swdb"),
		filepath.Join(dir3, "re-02.swdb"),
	)
	px = proxiedShardNode(t, allShards)

	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err = NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{px.URL()}, liveDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.CloseNow)

	rep := ReportOptions{Alignments: true, EValues: true, TopK: 5}
	want = refCanon(t, parentPath, queries, rep)
	return coord, manifestPath, cut2, cut3, queries, want, px
}

// reloadRep is the report shape every reload test compares under.
var reloadRep = ReportOptions{Alignments: true, EValues: true, TopK: 5}

func checkConform(t *testing.T, phase string, coord *Cluster, queries []Sequence, want [][]byte) {
	t.Helper()
	for i, q := range queries {
		res, err := coord.Search(q, reloadRep)
		if err != nil {
			t.Fatalf("%s: Search(%s): %v", phase, q.ID(), err)
		}
		if got := canonDistrib(t, res); !bytes.Equal(got, want[i]) {
			t.Fatalf("%s: query %s diverged from single-node:\nwant %s\ngot  %s", phase, q.ID(), want[i], got)
		}
	}
}

// TestManifestHotReload pins the happy path: reload onto a 3-way re-cut
// of the same parent, then back to the 2-way cut, with results
// byte-identical to single-node across every generation.
func TestManifestHotReload(t *testing.T) {
	coord, manifestPath, cut2, cut3, queries, want, _ := reloadSetup(t)
	ctx := context.Background()

	checkConform(t, "generation 1 (2-way)", coord, queries, want)
	if topo := coord.Topology(); topo.Generation != 1 || len(topo.Shards) != 2 {
		t.Fatalf("initial topology: %+v", topo)
	}

	if err := os.WriteFile(manifestPath, cut3, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := coord.ReloadManifest(ctx); err != nil {
		t.Fatalf("reload onto the 3-way cut: %v", err)
	}
	topo := coord.Topology()
	if topo.Generation != 2 || topo.Reloads != 1 || len(topo.Shards) != 3 {
		t.Fatalf("post-reload topology: generation %d reloads %d shards %d, want 2/1/3",
			topo.Generation, topo.Reloads, len(topo.Shards))
	}
	checkConform(t, "generation 2 (3-way)", coord, queries, want)

	if err := os.WriteFile(manifestPath, cut2, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := coord.ReloadManifest(ctx); err != nil {
		t.Fatalf("reload back onto the 2-way cut: %v", err)
	}
	if topo := coord.Topology(); topo.Generation != 3 || len(topo.Shards) != 2 {
		t.Fatalf("post-revert topology: %+v", topo)
	}
	checkConform(t, "generation 3 (2-way again)", coord, queries, want)
}

// TestReloadInvalidManifestKeepsServing pins the failure discipline for
// unreadable content: the reload reports the parse failure, the failure
// counter moves, and the old topology keeps answering byte-identically.
func TestReloadInvalidManifestKeepsServing(t *testing.T) {
	coord, manifestPath, _, _, queries, want, _ := reloadSetup(t)

	if err := os.WriteFile(manifestPath, []byte(`{"version": garbage`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := coord.ReloadManifest(context.Background()); err == nil {
		t.Fatal("reloading a corrupt manifest must fail")
	}
	topo := coord.Topology()
	if topo.Generation != 1 || topo.ReloadFailures != 1 || topo.Reloads != 0 {
		t.Fatalf("after failed reload: generation %d failures %d reloads %d, want 1/1/0",
			topo.Generation, topo.ReloadFailures, topo.Reloads)
	}
	checkConform(t, "after corrupt-manifest reload", coord, queries, want)
}

// TestReloadWrongParentRejected pins the identity gate on the hot path:
// a manifest cut from a different database is refused with the same
// "manifest parent" diagnosis construction gives, and the old topology
// keeps serving.
func TestReloadWrongParentRejected(t *testing.T) {
	coord, manifestPath, _, _, queries, want, _ := reloadSetup(t)

	otherSeqs := wrapSeqs(datagen.Generate(datagen.Config{
		Sequences: 64, Seed: 99, MeanLen: 80, SigmaLog: 0.4, MaxLen: 2000,
	}))
	otherDB, err := NewDatabase(otherSeqs)
	if err != nil {
		t.Fatal(err)
	}
	otherDir := t.TempDir()
	otherPath := filepath.Join(otherDir, "other.swdb")
	if err := WriteIndexFile(otherPath, otherDB); err != nil {
		t.Fatal(err)
	}
	otherManifest, err := SplitIndexFile(otherPath, 2, otherDir, "")
	if err != nil {
		t.Fatal(err)
	}
	alien, err := os.ReadFile(otherManifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, alien, 0o644); err != nil {
		t.Fatal(err)
	}
	err = coord.ReloadManifest(context.Background())
	if err == nil {
		t.Fatal("reloading another database's manifest must fail")
	}
	if !strings.Contains(err.Error(), "manifest parent") {
		t.Fatalf("refusal should name the key mismatch, got: %v", err)
	}
	if topo := coord.Topology(); topo.Generation != 1 || topo.ReloadFailures != 1 {
		t.Fatalf("alien manifest moved the topology: %+v", topo)
	}
	checkConform(t, "after alien-manifest reload", coord, queries, want)
}

// TestReloadUnownedShardRejected pins coverage-gating on the hot path: a
// re-cut whose shards no node serves is refused — the build happens
// before the swap — and the old topology keeps serving.
func TestReloadUnownedShardRejected(t *testing.T) {
	// This setup's node serves only the 2-way cut, so the 3-way manifest
	// is valid but uncovered.
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
	node, _ := startShardNode(t, shardPaths, nil)
	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{node.URL}, liveDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()
	want := refCanon(t, parentPath, queries, reloadRep)

	if err := os.WriteFile(manifestPath, cut3, 0o644); err != nil {
		t.Fatal(err)
	}
	err = coord.ReloadManifest(context.Background())
	if err == nil {
		t.Fatal("reloading a cut nobody serves must fail")
	}
	if !strings.Contains(err.Error(), "no node serves shard") {
		t.Fatalf("refusal should name the unowned shard, got: %v", err)
	}
	if topo := coord.Topology(); topo.Generation != 1 || len(topo.Shards) != 2 {
		t.Fatalf("uncovered reload moved the topology: %+v", topo)
	}
	checkConform(t, "after uncovered reload", coord, queries, want)
}

// TestReloadRacesInflightQueries flips the topology between the two cuts
// while a concurrent query load runs: every query must answer
// byte-identically whichever generation it lands on — a reload must
// never tear a response — and the -race build must stay silent.
func TestReloadRacesInflightQueries(t *testing.T) {
	coord, manifestPath, cut2, cut3, queries, want, _ := reloadSetup(t)

	workers, perWorker, flips := 4, 6, 10
	if testing.Short() {
		workers, perWorker, flips = 2, 3, 4
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				qi := (w + i) % len(queries)
				res, err := coord.Search(queries[qi], reloadRep)
				if err != nil {
					errc <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
				if got := canonDistrib(t, res); !bytes.Equal(got, want[qi]) {
					errc <- fmt.Errorf("worker %d query %d: result torn across a reload", w, i)
					return
				}
			}
		}(w)
	}
	ctx := context.Background()
	for i := 0; i < flips; i++ {
		content := cut3
		if i%2 == 1 {
			content = cut2
		}
		if err := os.WriteFile(manifestPath, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := coord.ReloadManifest(ctx); err != nil {
			t.Fatalf("reload flip %d: %v", i, err)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if topo := coord.Topology(); topo.Reloads != flips {
		t.Fatalf("reloads %d, want %d", topo.Reloads, flips)
	}
	checkConform(t, "after the flip storm", coord, queries, want)
}

// TestReloadSerializesConcurrentReloads pins that reloads publish in the
// order they read the manifest. Reload A reads the 3-way cut and stalls on
// its probe; the file then holds the 2-way cut, and reload B runs while A
// waits. B must not finish first and be overwritten by A: the coordinator
// ends on the cut the file holds.
func TestReloadSerializesConcurrentReloads(t *testing.T) {
	coord, manifestPath, cut2, cut3, _, _, px := reloadSetup(t)
	ctx := context.Background()
	px.Match(func(r *http.Request) bool { return r.URL.Path == "/shards" })
	px.Program(faultproxy.Step{Act: faultproxy.Delay, Wait: 500 * time.Millisecond})

	if err := os.WriteFile(manifestPath, cut3, 0o644); err != nil {
		t.Fatal(err)
	}
	errA := make(chan error, 1)
	go func() { errA <- coord.ReloadManifest(ctx) }()
	// A has read the 3-way cut once its probe reaches the proxy.
	for px.Attempts() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := os.WriteFile(manifestPath, cut2, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := coord.ReloadManifest(ctx); err != nil {
		t.Fatalf("reload B: %v", err)
	}
	if err := <-errA; err != nil {
		t.Fatalf("reload A: %v", err)
	}
	if topo := coord.Topology(); len(topo.Shards) != 2 || topo.Reloads != 2 {
		t.Fatalf("after both reloads: %d shards, %d reloads; want the file's 2-way cut after 2 reloads",
			len(topo.Shards), topo.Reloads)
	}
}

// TestAdminEndpoints pins the HTTP face of the live topology: /healthz
// carries the topology document and degrades when a shard loses its last
// replica; /admin/reload and /admin/probe answer 200/409/404 per the
// documented contract.
func TestAdminEndpoints(t *testing.T) {
	coord, manifestPath, _, cut3, _, _, _ := reloadSetup(t)
	front := httptest.NewServer(NewHTTPHandler(coord))
	defer front.Close()

	// healthz: ok, with the topology document attached.
	var health struct {
		Status   string        `json:"status"`
		Topology *TopologyInfo `json:"topology"`
	}
	adminGet(t, front.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Topology == nil || health.Topology.Generation != 1 {
		t.Fatalf("healthz: %+v, want ok with generation-1 topology", health)
	}

	// admin/probe: a sweep, answering the refreshed topology.
	var probed TopologyInfo
	adminPost(t, front.URL+"/admin/probe", http.StatusOK, &probed)
	if len(probed.Nodes) != 1 || probed.Nodes[0].State != "healthy" {
		t.Fatalf("admin/probe topology: %+v", probed.Nodes)
	}

	// admin/reload: 200 with the new generation on success...
	if err := os.WriteFile(manifestPath, cut3, 0o644); err != nil {
		t.Fatal(err)
	}
	var reloaded struct {
		Status     string `json:"status"`
		Generation int    `json:"generation"`
	}
	adminPost(t, front.URL+"/admin/reload", http.StatusOK, &reloaded)
	if reloaded.Status != "ok" || reloaded.Generation != 2 {
		t.Fatalf("admin/reload: %+v, want ok/2", reloaded)
	}

	// ... and 409 with the old topology intact on failure.
	if err := os.WriteFile(manifestPath, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var failBody struct {
		Error string `json:"error"`
	}
	adminPost(t, front.URL+"/admin/reload", http.StatusConflict, &failBody)
	if failBody.Error == "" {
		t.Fatal("409 reload must say why")
	}
	if topo := coord.Topology(); topo.Generation != 2 {
		t.Fatalf("failed reload moved the generation to %d", topo.Generation)
	}

	// GET where POST is required.
	resp, err := http.Get(front.URL + "/admin/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reload = %d, want 405", resp.StatusCode)
	}
}

// TestAdminEndpointsLocalCluster pins that a plain local cluster answers
// 404 on the coordinator-only admin endpoints and serves a topology-free
// healthz.
func TestAdminEndpointsLocalCluster(t *testing.T) {
	db, _ := SyntheticSwissProt(0.001, false)
	cl, err := NewCluster(db, distribOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.CloseNow()
	front := httptest.NewServer(NewHTTPHandler(cl))
	defer front.Close()

	for _, path := range []string{"/admin/reload", "/admin/probe"} {
		resp, err := http.Post(front.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s on a local cluster = %d, want 404", path, resp.StatusCode)
		}
	}
	var health struct {
		Status   string          `json:"status"`
		Topology json.RawMessage `json:"topology"`
	}
	adminGet(t, front.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || len(health.Topology) != 0 {
		t.Fatalf("local healthz: %+v, want ok with no topology", health)
	}
}

// TestHealthzDegradedOnUncoveredShard pins the load-balancer signal: the
// moment a shard has no live replica, /healthz flips to "degraded".
func TestHealthzDegradedOnUncoveredShard(t *testing.T) {
	parentPath, manifestPath, shardPaths, _ := distribSetup(t)
	pxA := proxiedShardNode(t, shardPaths)
	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{pxA.URL()}, liveDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()
	front := httptest.NewServer(NewHTTPHandler(coord))
	defer front.Close()

	pxA.SetDown(true)
	ctx := context.Background()
	if err := coord.ProbeNodes(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.ProbeNodes(ctx); err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string        `json:"status"`
		Topology *TopologyInfo `json:"topology"`
	}
	adminGet(t, front.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "degraded" {
		t.Fatalf("healthz status %q with every shard uncovered, want degraded", health.Status)
	}
	if health.Topology == nil || !health.Topology.Uncovered() {
		t.Fatalf("degraded healthz topology: %+v", health.Topology)
	}

	// Recovery flips it straight back.
	pxA.SetDown(false)
	if err := coord.ProbeNodes(ctx); err != nil {
		t.Fatal(err)
	}
	adminGet(t, front.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" {
		t.Fatalf("healthz status %q after recovery, want ok", health.Status)
	}
}

func adminGet(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func adminPost(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
}
