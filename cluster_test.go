package heterosw

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"heterosw/internal/core"
)

func TestClusterMatchesSingleDevice(t *testing.T) {
	db, queries := SyntheticSwissProt(0.001, true)
	q := queries[2]
	single, err := searchDB(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []string{"static", "dynamic", "guided"} {
		cl, err := NewCluster(db, ClusterOptions{
			Devices: []DeviceKind{DeviceXeon, DevicePhi, DevicePhi},
			Dist:    dist,
		})
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		res, err := cl.Search(q)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		for i := range single.Scores {
			if res.Scores[i] != single.Scores[i] {
				t.Fatalf("%s: score %d: cluster %d != single %d", dist, i, res.Scores[i], single.Scores[i])
			}
		}
		// The roster and the distribution are what Plan prices.
		plan, err := cl.Plan(q.Len())
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if len(plan.Devices) != 3 || plan.Dist != dist {
			t.Fatalf("%s: plan %+v", dist, plan)
		}
		var share float64
		for _, d := range plan.Devices {
			share += d.Share
		}
		if share < 0.999 || share > 1.001 {
			t.Fatalf("%s: shares sum to %v", dist, share)
		}
		if plan.Seconds <= 0 || plan.GCUPS <= 0 {
			t.Fatalf("%s: timing %+v", dist, plan)
		}
	}
}

// Whatever roster and distribution a local cluster is configured with, a
// query is one engine search over the whole database on one host backend:
// one query profile, one lane partition, one worker sweep.
func TestLocalClusterOneEngineSearchPerQuery(t *testing.T) {
	db, queries := SyntheticSwissProt(0.001, true)
	// The whole-database partition a default search packs: byte lanes of
	// the host register, long subjects routed out.
	groups, long := db.db.Partition(hostWidth().ByteLanes(), core.DefaultLongSeqThreshold)
	wantGroups := int64(len(groups) + len(long))

	var first *ClusterResult
	for _, opt := range []ClusterOptions{
		{},
		{Devices: []DeviceKind{DeviceXeon, DevicePhi, DevicePhi}, Dist: "dynamic"},
	} {
		cl, err := NewCluster(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		for n, q := range queries[:3] {
			before := cl.engine().disp.KernelStats()
			res, err := cl.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			after := cl.engine().disp.KernelStats()
			if got := after.Groups - before.Groups; got != wantGroups {
				t.Fatalf("%v: query %d ran %d work items, want the whole-database partition's %d",
					opt.Devices, n, got, wantGroups)
			}
			nq, per := cl.Totals()
			if len(per) != 1 || per[0].Name != "host" || per[0].Device != DeviceHost {
				t.Fatalf("%v: backends %+v, want a single host", opt.Devices, per)
			}
			if want := int64(n + 1); nq != want || per[0].Grants != want {
				t.Fatalf("%v: %d queries took %d engine searches, want %d each", opt.Devices, nq, per[0].Grants, want)
			}
			if per[0].Workers != runtime.GOMAXPROCS(0) || per[0].Cells != after.Cells || per[0].WallSeconds <= 0 {
				t.Fatalf("%v: host totals %+v against kernel cells %d", opt.Devices, per[0], after.Cells)
			}
			if n > 0 {
				continue
			}
			if first == nil {
				first = res
			} else if !reflect.DeepEqual(res.Hits, first.Hits) || !reflect.DeepEqual(res.Scores, first.Scores) || res.Cells != first.Cells {
				t.Fatalf("%v: results differ from the zero ClusterOptions'", opt.Devices)
			}
		}
	}
}

func TestClusterDefaultsToPaperPair(t *testing.T) {
	db, _ := tinyDB(t)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	devs := cl.Devices()
	if len(devs) != 2 || devs[0] != DeviceXeon || devs[1] != DevicePhi {
		t.Fatalf("default roster %v", devs)
	}
	res, err := cl.Search(NewSequence("q", "MKWVLA"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 4 {
		t.Fatalf("%d hits", len(res.Hits))
	}
}

func TestClusterSearchBatch(t *testing.T) {
	db, queries := SyntheticSwissProt(0.001, true)
	cl, err := NewCluster(db, ClusterOptions{
		Devices: []DeviceKind{DeviceXeon, DevicePhi},
		Dist:    "dynamic",
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := queries[:3]
	results, err := cl.DoBatch(context.Background(), requests(batch))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	for i, q := range batch {
		single, err := searchDB(db, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for j := range single.Scores {
			if results[i].Scores[j] != single.Scores[j] {
				t.Fatalf("query %d seq %d: batch %d != single %d", i, j, results[i].Scores[j], single.Scores[j])
			}
		}
	}
	if _, err := cl.DoBatch(context.Background(), []Request{{}}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("zero-value query in a batch: err = %v, want ErrBadRequest", err)
	}
}

// requests wraps queries as direct-search requests.
func requests(queries []Sequence, rep ...ReportOptions) []Request {
	out := make([]Request, len(queries))
	for i, q := range queries {
		out[i] = Request{Query: q}
		if len(rep) > 0 {
			out[i].Report = rep[0]
		}
	}
	return out
}

// Cluster.Close — which only stops background work — leaves every door
// open.
func TestClusterCloseWithoutSubmit(t *testing.T) {
	db, _ := tinyDB(t)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close() // idempotent
	if _, err := cl.Do(context.Background(), Request{Query: NewSequence("q", "MKWVLA")}); err != nil {
		t.Fatalf("Do after Close: %v", err)
	}
}

func TestClusterOptionErrors(t *testing.T) {
	db, _ := tinyDB(t)
	cases := []ClusterOptions{
		{Devices: []DeviceKind{"gpu"}},
		{Dist: "adaptive"},
		{Options: Options{Variant: "nope"}},
	}
	for i, opt := range cases {
		if _, err := NewCluster(db, opt); err == nil {
			t.Errorf("case %d accepted: %+v", i, opt)
		}
	}
	if _, err := NewCluster(nil, ClusterOptions{}); err == nil {
		t.Error("nil database accepted")
	}
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Search(Sequence{}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("zero-value query: err = %v, want ErrBadRequest", err)
	}
	// A query under the wrong alphabet never reaches a scheduler.
	if _, err := cl.Do(context.Background(), Request{Query: NewDNASequence("d", "ACGT")}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("DNA query against a protein database: err = %v, want ErrBadRequest", err)
	}
}

// TestClusterConcurrentHammer drives concurrent Search, DoBatch and Do
// traffic over one Database from many goroutines. Run under -race (as CI
// does) it proves the lazy engine caches, the scheduler and the engine's
// scratch pool are properly synchronised.
func TestClusterConcurrentHammer(t *testing.T) {
	db, queries := SyntheticSwissProt(0.0003, true)
	static, err := NewCluster(db, ClusterOptions{Devices: []DeviceKind{DeviceXeon, DevicePhi, DevicePhi}})
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := NewCluster(db, ClusterOptions{
		Devices: []DeviceKind{DeviceXeon, DevicePhi},
		Dist:    "dynamic",
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := searchDB(db, queries[0], Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	check := func(scores []int32) error {
		for i := range want.Scores {
			if scores[i] != want.Scores[i] {
				return fmt.Errorf("score %d diverged under concurrency", i)
			}
		}
		return nil
	}
	for g := 0; g < 3; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for k := 0; k < 2; k++ {
				res, err := static.Search(queries[0])
				if err == nil {
					err = check(res.Scores)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			batch, err := dynamic.DoBatch(context.Background(), requests([]Sequence{queries[0], queries[0]}))
			if err != nil {
				errc <- err
				return
			}
			for _, r := range batch {
				if err := check(r.Scores); err != nil {
					errc <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for k := 0; k < 2; k++ {
				res, err := static.Do(context.Background(), Request{Query: queries[k]})
				if err == nil && k == 0 {
					err = check(res.Scores)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestDefaultCacheSize pins the derived LRU capacity. An entry costs
// 4 B per database sequence (Result.Scores, int32) plus 4 KiB for its K
// hits, and the budget is 512 MiB:
//
//	541,561 sequences (Swiss-Prot 2013_11): 541,561 x 4 + 4,096 = 2,170,340 B;
//	536,870,912 / 2,170,340 = 247.4 -> 247 entries
//
// clamped to [8, 512]: 261,000 sequences still get all 512 (1,048,096 B an
// entry -> 512.2) where 262,000 get 510, and the floor of 8 binds beyond
// 16.8 million sequences (a hundred million would get 1).
func TestDefaultCacheSize(t *testing.T) {
	for _, tc := range []struct{ dbLen, want int }{
		{0, 512},
		{261_000, 512},
		{262_000, 510},
		{541_561, 247},
		{100_000_000, 8},
	} {
		if got := defaultCacheSize(tc.dbLen); got != tc.want {
			t.Errorf("defaultCacheSize(%d) = %d, want %d", tc.dbLen, got, tc.want)
		}
	}
}

// TestSearchAllocationIsBounded pins what a serving-shaped search leaves on
// the heap: the one score list that is as long as the database (the
// engine's int32 scores, which Result.Scores shares, 4 B a sequence) and
// nothing else that grows with it. A copy of the scores, an N-long hit
// list (32 B a sequence in core, 56 in the public result) or an N-long sort
// buffer would not fit the bound.
func TestSearchAllocationIsBounded(t *testing.T) {
	const n = 4000
	db, q := servingDB(t, n)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.CloseNow()
	search := func() {
		res, err := cl.Search(q, ReportOptions{TopK: 10})
		if err != nil || len(res.Hits) != 10 || len(res.Scores) != n {
			t.Fatalf("search: %v (%d hits, %d scores)", err, len(res.Hits), len(res.Scores))
		}
	}
	search() // lane packings and worker scratch are built once
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	testing.AllocsPerRun(runs, search) // runs+1 searches on one P
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("%d B per search", perRun)
	if limit := uint64(4*n + 16<<10); perRun >= limit {
		t.Fatalf("one top-10 search over %d sequences allocates %d B, want under %d", n, perRun, limit)
	}
}
