package heterosw

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"heterosw/internal/alphabet"
	"heterosw/internal/core"
	"heterosw/internal/datagen"
	"heterosw/internal/remote"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
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
	return startShardNodeWith(t, shardPaths, distribOpts(), wrap)
}

// startShardNodeWith is startShardNode with the node's cluster options.
func startShardNodeWith(t testing.TB, shardPaths []string, opt ClusterOptions, wrap func(http.Handler) http.Handler) (*httptest.Server, *ShardServer) {
	t.Helper()
	clusters := make([]*Cluster, len(shardPaths))
	for i, p := range shardPaths {
		sdb, err := OpenIndexFile(p)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewCluster(sdb, opt)
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
func canonDistrib(t testing.TB, res *Result) []byte {
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
// single-node search of the unsplit database. The ties corpus holds more
// equal-scoring subjects than the report keeps, dealt across both
// shards, so which of them make the top K is the merge's tie rule, and it
// must be the single-node one.
func TestCoordinatorConformance(t *testing.T) {
	t.Run("mixed", func(t *testing.T) {
		parentPath, manifestPath, shardPaths, queries := distribSetup(t)
		checkCoordinatorConformance(t, parentPath, manifestPath, shardPaths, queries)
	})
	t.Run("ties", func(t *testing.T) {
		parentPath, manifestPath, shardPaths, queries := tieSetup(t)
		wants, scores := checkCoordinatorConformance(t, parentPath, manifestPath, shardPaths, queries)
		for i, want := range wants {
			kth := want.Hits[len(want.Hits)-1].Score
			tied, kept := 0, 0
			for _, s := range scores[i] {
				if int(s) == kth {
					tied++
				}
			}
			for _, h := range want.Hits {
				if h.Score == kth {
					kept++
				}
			}
			if tied <= kept {
				t.Errorf("%d subjects score the K-th score %d and the report keeps %d: no tie is cut", tied, kth, kept)
			}
		}
	})
	// Each K cuts the ties corpus at another score: K = 1 keeps one of the
	// two full copies and K = 10 cuts the tied prefixes, both with
	// alignments and E-values. K = 0 reports every subject, which the
	// public options allow only without a reporting phase (a phase bounds
	// K = 0 at the default ten hits).
	t.Run("k", func(t *testing.T) { checkCoordinatorK(t, false) })
	// The same cuts of a translated query: each subject's best frame, ties
	// to the earlier frame, then the cross-shard tie rule over those.
	t.Run("translated-k", func(t *testing.T) { checkCoordinatorK(t, true) })
	// A translated request searches the six frames of a DNA query on the
	// nodes and traces back its hits on the coordinator.
	t.Run("translated", func(t *testing.T) {
		parentPath, manifestPath, shardPaths, queries := distribSetup(t)
		coord, parentDB, ref, refDB := coordinatorAndReference(t, parentPath, manifestPath, shardPaths)
		rep := ReportOptions{Alignments: true, EValues: true, TopK: 5}
		for _, req := range confRequests(t, queries, rep, "", true) {
			want, err := ref.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("reference translated Do(%s): %v", req.Query.ID(), err)
			}
			if len(want.Hits) == 0 || want.Hits[0].Alignment == nil {
				t.Fatalf("translated %s: the single node reports no aligned hit; the leg compares nothing", req.Query.ID())
			}
			got, err := coord.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("coordinator translated Do(%s): %v", req.Query.ID(), err)
			}
			checkSameAnswer(t, req.Query, refDB, want, parentDB, got)
		}
	})
}

// checkCoordinatorK compares a coordinator over the ties corpus with a
// single node at K = 1 and K = 10, both with alignments and E-values, and
// at K = 0, direct or translated.
func checkCoordinatorK(t *testing.T, translated bool) {
	parentPath, manifestPath, shardPaths, queries := tieSetup(t)
	coord, parentDB, ref, refDB := coordinatorAndReference(t, parentPath, manifestPath, shardPaths)
	for _, rep := range []ReportOptions{
		{Alignments: true, EValues: true, TopK: 1},
		{Alignments: true, EValues: true, TopK: 10},
		{},
	} {
		for _, req := range confRequests(t, queries, rep, "", translated) {
			want, err := ref.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("K=%d: reference Do(%s): %v", rep.TopK, req.Query.ID(), err)
			}
			if n := len(want.Hits); (rep.TopK > 0 && n != rep.TopK) || (rep.TopK == 0 && n != refDB.Len()) {
				t.Fatalf("K=%d: the single node reports %d hits", rep.TopK, n)
			}
			if rep.EValues && (want.Significance == nil || want.Hits[0].Alignment == nil) {
				t.Fatalf("K=%d: the single node reports no E-values or alignments; the leg compares nothing", rep.TopK)
			}
			got, err := coord.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("K=%d: coordinator Do(%s): %v", rep.TopK, req.Query.ID(), err)
			}
			checkSameAnswer(t, req.Query, refDB, want, parentDB, got)
		}
	}
}

// coordinatorAndReference starts one node per shard and returns a
// coordinator over them with the parent index it reads, and a single-node
// cluster over its own copy of the parent. Everything is closed when the
// test ends.
func coordinatorAndReference(t *testing.T, parentPath, manifestPath string, shardPaths []string) (coord *Cluster, parentDB *Database, ref *Cluster, refDB *Database) {
	t.Helper()
	nodeA, _ := startShardNode(t, shardPaths[:1], nil)
	nodeB, _ := startShardNode(t, shardPaths[1:], nil)
	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err = NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{nodeA.URL, nodeB.URL}, fastDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.CloseNow)
	refDB, err = OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err = NewCluster(refDB, distribOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.CloseNow)
	return coord, parentDB, ref, refDB
}

// checkSameAnswer compares a coordinator's answer to query q with the
// single node's: the canonical result, the rendered report — which carries
// no timing at all, so it must be byte-identical with no canonicalisation —
// and the cells, which merge exactly because useful cells are
// sharding-independent.
func checkSameAnswer(t *testing.T, q Sequence, refDB *Database, want *Result, parentDB *Database, got *Result) {
	t.Helper()
	if w, g := canonDistrib(t, want), canonDistrib(t, got); !bytes.Equal(w, g) {
		t.Errorf("query %s: coordinator result differs from single-node:\nwant %s\ngot  %s", q.ID(), w, g)
	}
	var wantRep, gotRep bytes.Buffer
	if err := WriteFormat(&wantRep, "blast", q, refDB, want, 60); err != nil {
		t.Fatal(err)
	}
	if err := WriteFormat(&gotRep, "blast", q, parentDB, got, 60); err != nil {
		t.Fatal(err)
	}
	if wantRep.String() != gotRep.String() {
		t.Errorf("query %s: rendered reports differ:\n--- single-node\n%s\n--- coordinator\n%s",
			q.ID(), wantRep.String(), gotRep.String())
	}
	if want.Cells != got.Cells {
		t.Errorf("query %s: cells %d != single-node %d", q.ID(), got.Cells, want.Cells)
	}
}

// tieSetup builds a corpus whose top hits tie across the shard cut: two
// copies of a 60-residue query and ten copies of its first 40 residues
// among unrelated background sequences. A top-5 report of the query keeps
// both full copies and three of the ten tied prefixes; one of the prefix
// keeps five of the twelve subjects that tie at its own score. The
// equal-length copies alternate between the shards, which the test checks
// against the manifest.
func tieSetup(t testing.TB) (parentPath, manifestPath string, shardPaths []string, queries []Sequence) {
	t.Helper()
	dir := t.TempDir()
	const query = "MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPF"
	seqs := wrapSeqs(datagen.Generate(datagen.Config{
		Sequences: 36, Seed: 77, MeanLen: 90, SigmaLog: 0.5, MaxLen: 400,
	}))
	for i := 0; i < 12; i++ {
		id, res := fmt.Sprintf("tie-%02d", i), query[:40]
		if i < 2 {
			id, res = fmt.Sprintf("full-%d", i), query
		}
		at := 3 * i
		seqs = append(seqs[:at], append([]Sequence{NewSequence(id, res)}, seqs[at:]...)...)
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		t.Fatal(err)
	}
	parentPath = filepath.Join(dir, "ties.swdb")
	if err := WriteIndexFile(parentPath, db); err != nil {
		t.Fatal(err)
	}
	manifestPath, err = SplitIndexFile(parentPath, 2, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	man, err := remote.ReadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range man.Shards {
		shardPaths = append(shardPaths, filepath.Join(dir, sh.File))
		ties := 0
		for _, pi := range sh.ParentIndex {
			if strings.HasPrefix(seqs[pi].ID(), "tie-") {
				ties++
			}
		}
		if ties < 2 {
			t.Fatalf("shard %d holds %d of the tied copies; the cut must split them", i, ties)
		}
	}
	return parentPath, manifestPath, shardPaths, []Sequence{
		NewSequence("ties-at-k", query),
		NewSequence("ties-at-top", query[:40]),
	}
}

// checkCoordinatorConformance compares a coordinator over one node per
// shard with a single-node cluster of the parent, query by query, and
// returns the single-node results.
func checkCoordinatorConformance(t *testing.T, parentPath, manifestPath string, shardPaths []string, queries []Sequence) (wants []*Result, scores [][]int32) {
	t.Helper()
	coord, parentDB, ref, refDB := coordinatorAndReference(t, parentPath, manifestPath, shardPaths)
	rep := ReportOptions{Alignments: true, EValues: true, TopK: 5}
	for _, q := range queries {
		// Every subject's score, read from an every-hit search, merges
		// into the single-node list on both doors.
		all, err := ref.Search(q)
		if err != nil {
			t.Fatalf("reference every-hit Search(%s): %v", q.ID(), err)
		}
		wantScores := scoreList(t, refDB, all)
		scores = append(scores, wantScores)
		for door, search := range map[string]func() (*Result, error){
			"Search": func() (*Result, error) { return coord.Search(q) },
			"Do":     func() (*Result, error) { return coord.Do(context.Background(), Request{Query: q}) },
		} {
			got, err := search()
			if err != nil {
				t.Fatalf("coordinator every-hit %s(%s): %v", door, q.ID(), err)
			}
			if gotScores := scoreList(t, parentDB, got); !slices.Equal(gotScores, wantScores) {
				t.Errorf("query %s: coordinator %s score list differs from single-node", q.ID(), door)
			}
		}
		want, err := ref.Search(q, rep)
		if err != nil {
			t.Fatalf("reference Search(%s): %v", q.ID(), err)
		}
		wants = append(wants, want)
		got, err := coord.Search(q, rep)
		if err != nil {
			t.Fatalf("coordinator Search(%s): %v", q.ID(), err)
		}
		checkSameAnswer(t, q, refDB, want, parentDB, got)
		// The scheduled path must agree too (it is what swserve serves).
		sched, err := coord.Do(context.Background(), Request{Query: q, Report: rep})
		if err != nil {
			t.Fatalf("coordinator Do(%s): %v", q.ID(), err)
		}
		if w, g := canonDistrib(t, want), canonDistrib(t, sched); !bytes.Equal(w, g) {
			t.Errorf("query %s: scheduled coordinator result differs from single-node", q.ID())
		}
	}
	return wants, scores
}

// TestCoordinatorAnyCut pins sharded == unsharded under any cut, through
// the real wire: for each seed it draws a corpus and n in 2–5, cuts the
// parent into n shards and deals them over in-process nodes at random,
// every shard covered and at least one node holding two or more, then
// compares a coordinator over those nodes with a single node of the parent
// at K 0, 1, 10 and n, direct and translated, with and without alignments
// and E-values. A failing seed is in the subtest's name.
func TestCoordinatorAnyCut(t *testing.T) {
	type corpus struct {
		name       string
		parentPath string
		queries    []Sequence
		ref        *Cluster
		refDB      *Database
	}
	var corpora []corpus
	for name, setup := range map[string]func(testing.TB) (string, string, []string, []Sequence){"mixed": distribSetup, "ties": tieSetup} {
		parentPath, _, _, queries := setup(t)
		refDB, err := OpenIndexFile(parentPath)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewCluster(refDB, distribOpts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ref.CloseNow)
		corpora = append(corpora, corpus{name, parentPath, queries, ref, refDB})
	}
	slices.SortFunc(corpora, func(a, b corpus) int { return strings.Compare(a.name, b.name) })
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := corpora[rng.Intn(len(corpora))]
			n := 2 + rng.Intn(4)
			dir := t.TempDir()
			manifestPath, err := SplitIndexFile(c.parentPath, n, dir, "cut")
			if err != nil {
				t.Fatal(err)
			}
			man, err := remote.ReadManifest(manifestPath)
			if err != nil {
				t.Fatal(err)
			}
			// Each shard goes to one of m nodes, a third of them to a second
			// node as well; a node left empty is not started.
			m := 1 + rng.Intn(n)
			held := make([][]string, m)
			for _, sh := range man.Shards {
				owner := rng.Intn(m)
				held[owner] = append(held[owner], sh.File)
				if other := rng.Intn(m); rng.Intn(3) == 0 && other != owner {
					held[other] = append(held[other], sh.File)
				}
			}
			held = slices.DeleteFunc(held, func(files []string) bool { return len(files) == 0 })
			if !slices.ContainsFunc(held, func(files []string) bool { return len(files) >= 2 }) {
				file := man.Shards[0].File
				if held[0][0] == file {
					file = man.Shards[1].File
				}
				held[0] = append(held[0], file)
			}
			t.Logf("%s corpus, %d shards over nodes holding %v", c.name, n, held)
			urls := make([]string, len(held))
			for i, files := range held {
				paths := make([]string, len(files))
				for j, f := range files {
					paths[j] = filepath.Join(dir, f)
				}
				node, _ := startShardNode(t, paths, nil)
				urls[i] = node.URL
			}
			parentDB, err := OpenIndexFile(c.parentPath)
			if err != nil {
				t.Fatal(err)
			}
			coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, urls, fastDistribOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer coord.CloseNow()
			for _, k := range []int{0, 1, 10, n} {
				for _, rep := range []ReportOptions{{TopK: k}, {TopK: k, Alignments: true}, {TopK: k, EValues: true}, {TopK: k, Alignments: true, EValues: true}} {
					for _, translated := range []bool{false, true} {
						for _, req := range confRequests(t, c.queries, rep, "", translated) {
							want, err := c.ref.Do(context.Background(), req)
							if err != nil {
								t.Fatalf("%+v translated=%t: reference Do(%s): %v", rep, translated, req.Query.ID(), err)
							}
							got, err := coord.Do(context.Background(), req)
							if err != nil {
								t.Fatalf("%+v translated=%t: coordinator Do(%s): %v", rep, translated, req.Query.ID(), err)
							}
							checkSameAnswer(t, req.Query, c.refDB, want, parentDB, got)
						}
					}
				}
			}
		})
	}
}

// TestCoordinatorTranslatedRoundTrips pins that a translated query costs
// what a direct one does: an aligned, E-valued Do through a coordinator
// over two shard nodes sends each node one /shard/search, whether the
// query is searched directly or in its six reading frames.
func TestCoordinatorTranslatedRoundTrips(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)
	var searches atomic.Int64
	nodeA, _ := startShardNode(t, shardPaths[:1], countSearches(&searches))
	nodeB, _ := startShardNode(t, shardPaths[1:], countSearches(&searches))
	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, []string{nodeA.URL, nodeB.URL}, fastDistribOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseNow()
	rep := ReportOptions{Alignments: true, EValues: true, TopK: 5}
	for _, translated := range []bool{false, true} {
		req := confRequests(t, queries[:1], rep, "", translated)[0]
		searches.Store(0)
		res, err := coord.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("translated=%t: %v", translated, err)
		}
		if translated && res.Hits[0].Frame == 0 {
			t.Fatalf("a translated hit names no frame: %+v", res.Hits[0])
		}
		if n := searches.Load(); n != 2 {
			t.Fatalf("translated=%t: %d /shard/search requests over two shards, want 2", translated, n)
		}
	}
}

// countSearches wraps a node handler to count its /shard/search requests
// in n.
func countSearches(n *atomic.Int64) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shard/search" {
				n.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestCoordinatorScoringIdentity pins that a coordinator never merges
// scores computed under another matrix or other gap penalties than its
// own: each node's answer names its scoring, and a replica scored
// otherwise fails its check like another shard's answer. A score-only Do,
// which no traceback would check, fails when the shard's only replica is
// configured apart, and answers the single-node bytes when a correctly
// configured replica of the same shard is there to fail over to.
func TestCoordinatorScoringIdentity(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)
	parentDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	refDB, err := OpenIndexFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(refDB, distribOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.CloseNow()
	req := Request{Query: queries[1], Report: ReportOptions{TopK: 5}}
	want, err := ref.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := startShardNode(t, shardPaths, nil)
	onlyB, _ := startShardNode(t, shardPaths[1:], nil)
	for name, opt := range map[string]Options{
		"matrix": {Matrix: "BLOSUM80"},
		"gaps":   {GapOpen: 11, GapExtend: 1},
	} {
		t.Run(name, func(t *testing.T) {
			apart := distribOpts()
			apart.Options = opt
			// The premise: the node's own scores differ from the reference's.
			other, err := NewCluster(refDB, apart)
			if err != nil {
				t.Fatal(err)
			}
			defer other.CloseNow()
			if got, err := other.Do(context.Background(), req); err != nil || reflect.DeepEqual(got.Hits, want.Hits) {
				t.Fatalf("%s: the node's scoring leaves the answer as it was (%v); the test proves nothing", name, err)
			}
			var asked atomic.Int64
			wrong, _ := startShardNodeWith(t, shardPaths[:1], apart, countSearches(&asked))
			for _, tc := range []struct {
				nodes []string
				ok    bool
			}{
				{[]string{wrong.URL, good.URL}, true},
				{[]string{wrong.URL, onlyB.URL}, false},
			} {
				coord, err := NewDistributedCluster(context.Background(), parentDB, manifestPath, tc.nodes, fastDistribOptions())
				if err != nil {
					t.Fatal(err)
				}
				asked.Store(0)
				got, err := coord.Do(context.Background(), req)
				coord.CloseNow()
				if asked.Load() == 0 {
					t.Fatal("no search reached the node configured apart")
				}
				if !tc.ok {
					if err == nil || !strings.Contains(err.Error(), "configured apart") {
						t.Fatalf("a shard whose only replica scores under other options: %v, want its answer refused", err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("with a correctly configured replica: %v", err)
				}
				if w, g := canonDistrib(t, want), canonDistrib(t, got); !bytes.Equal(w, g) {
					t.Fatalf("failed-over answer differs from single-node:\nwant %s\ngot  %s", w, g)
				}
			}
		})
	}
}

// TestShardSearchRefusesBadQueries pins the node's 400s for a query list
// no coordinator sends: no query, more than six (one per reading frame),
// an empty query, and a query over the residue limit.
func TestShardSearchRefusesBadQueries(t *testing.T) {
	_, _, shardPaths, queries := distribSetup(t)
	node, ss := startShardNode(t, shardPaths[:1], nil)
	codes := alphabet.BytesView(queries[0].impl.Residues)
	for _, tc := range []struct {
		name, why string
		queries   [][]byte
	}{
		{"none", "0 queries", [][]byte{}},
		{"seven", "7 queries", slices.Repeat([][]byte{codes}, 7)},
		{"empty", "query 1 holds 0 residues", [][]byte{codes, {}}},
		{"over the limit", "query 1 holds 65537 residues", [][]byte{codes, make([]byte, maxQueryResidues+1)}},
	} {
		req := remote.ShardSearchRequest{Shard: ss.keys[0], Queries: tc.queries, K: 10}
		resp, body := postJSON(t, node.URL+"/shard/search", req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.why) {
			t.Errorf("%s: status %d, want 400 naming %q: %s", tc.name, resp.StatusCode, tc.why, body)
		}
	}
	six := remote.ShardSearchRequest{Shard: ss.keys[0], Queries: slices.Repeat([][]byte{codes}, 6), K: 10}
	if resp, body := postJSON(t, node.URL+"/shard/search", six); resp.StatusCode != http.StatusOK {
		t.Errorf("six queries: status %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestShardSearchQueryListsNeverAlias pins the node's scheduler key over a
// query list: two lists whose residues run together alike get two keys,
// and a repeat of either shares its key.
func TestShardSearchQueryListsNeverAlias(t *testing.T) {
	_, _, shardPaths, queries := distribSetup(t)
	_, ss := startShardNode(t, shardPaths[:1], nil)
	codes := alphabet.BytesView(queries[1].impl.Residues)
	keys := make(map[string]bool)
	for _, qs := range [][][]byte{{codes[:4], codes[4:]}, {codes[:5], codes[5:]}, {codes[:4], codes[4:]}} {
		req := remote.ShardSearchRequest{Shard: ss.keys[0], Queries: qs, K: 10}
		wire, err := wireQueries(&req, alphabet.Protein)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := shardJob{shard: req.Shard, queries: wire, k: req.K}.key()
		keys[key] = true
	}
	if len(keys) != 2 {
		t.Fatalf("three searches of two query lists got %d node keys, want 2", len(keys))
	}
}

// gateBackend is a core.Backend that counts each search entering it on
// entered, holds it until a value arrives on release, then runs it on a
// real host backend.
type gateBackend struct {
	*core.EngineBackend
	entered chan<- struct{}
	release <-chan struct{}
}

func (g gateBackend) Search(ctx context.Context, db *seqdb.Database, queries []*sequence.Sequence, opt core.SearchOptions) (*core.Result, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.EngineBackend.Search(ctx, db, queries, opt)
}

// TestShardNodeBoundsInFlight pins that a node of two shards runs every
// shard search under one MaxInFlight: with a bound of 1, searches of the
// two shards never run together, and two identical searches of one shard
// run once. Each shard searches behind a gate that counts entries; a
// second entry is awaited for a bounded time, so a slow host can only let
// a broken node pass, never fail a correct one.
func TestShardNodeBoundsInFlight(t *testing.T) {
	_, _, shardPaths, queries := distribSetup(t)
	opt := distribOpts()
	opt.MaxInFlight = 1
	node, ss := startShardNodeWith(t, shardPaths, opt, nil)
	entered, release := make(chan struct{}, 4), make(chan struct{})
	defer close(release)
	for _, key := range ss.keys {
		cl := ss.shards[key]
		disp, err := core.NewDispatcher(cl.db.db, []core.Backend{gateBackend{core.NewBackend("gate", hostWidth(), 0), entered, release}})
		if err != nil {
			t.Fatal(err)
		}
		cl.eng.Store(disp)
	}
	codes := alphabet.BytesView(queries[0].impl.Residues)
	search := func(shard string, done chan<- int) {
		body, _ := json.Marshal(remote.ShardSearchRequest{Shard: shard, Queries: [][]byte{codes}, K: 10})
		resp, err := http.Post(node.URL+"/shard/search", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}
	enter := func(what string) {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never entered the gate", what)
		}
	}
	noSecondEntry := func(what string) {
		select {
		case <-entered:
			t.Fatalf("%s entered the gate while another search was inside", what)
		case <-time.After(200 * time.Millisecond):
		}
	}
	finish := func(done <-chan int, n int) {
		for range n {
			if code := <-done; code != http.StatusOK {
				t.Fatalf("/shard/search: status %d, want 200", code)
			}
		}
	}

	done := make(chan int, 2)
	go search(ss.keys[0], done)
	go search(ss.keys[1], done)
	enter("a search of either shard")
	noSecondEntry("a search of the other shard")
	release <- struct{}{}
	enter("the other shard's search")
	release <- struct{}{}
	finish(done, 2)

	go search(ss.keys[0], done)
	enter("a search of one shard")
	go search(ss.keys[0], done)
	for deadline := time.Now().Add(10 * time.Second); ss.sched.Stats().Joined == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the identical search never joined the one in flight")
		}
	}
	release <- struct{}{}
	noSecondEntry("the identical search")
	finish(done, 2)
}

// TestCoordinatorRejectsRequestMatrix pins the distributed matrix
// contract: the shard wire carries query codes, not options, so nodes score
// under their own configured matrix and a coordinator cannot honour a
// request-scoped one. It refuses the request — ErrBadMatrix, HTTP 400 —
// rather than answer under the nodes' matrix as if it had applied the
// caller's.
func TestCoordinatorRejectsRequestMatrix(t *testing.T) {
	parentPath, manifestPath, shardPaths, queries := distribSetup(t)
	coord, _, ref, _ := coordinatorAndReference(t, parentPath, manifestPath, shardPaths)

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
	var sr searchJSON
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
