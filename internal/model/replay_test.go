package model

import (
	"math/rand"
	"testing"
	"testing/quick"

	"heterosw/internal/sched"
)

func totalCost(costs []float64) float64 {
	var s float64
	for _, c := range costs {
		s += c
	}
	return s
}

func randCosts(rng *rand.Rand, n int, skew float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 + skew*rng.Float64()*rng.Float64()*100
	}
	return out
}

func TestSimulateSingleThread(t *testing.T) {
	costs := []float64{3, 1, 4, 1, 5}
	for _, p := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
		r := Simulate(costs, 1, p, 0)
		if r.Makespan != 14 {
			t.Errorf("%v: makespan %v, want 14", p, r.Makespan)
		}
	}
}

func TestSimulateMakespanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 50; trial++ {
		costs := randCosts(rng, rng.Intn(500)+1, 1)
		threads := rng.Intn(64) + 1
		total := totalCost(costs)
		var maxC float64
		for _, c := range costs {
			if c > maxC {
				maxC = c
			}
		}
		for _, p := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
			r := Simulate(costs, threads, p, 0)
			lower := total / float64(threads)
			if maxC > lower {
				lower = maxC
			}
			if r.Makespan < lower-1e-9 {
				t.Fatalf("%v: makespan %v below lower bound %v", p, r.Makespan, lower)
			}
			if r.Makespan > total+1e-9 {
				t.Fatalf("%v: makespan %v above serial time %v", p, r.Makespan, total)
			}
			var busy float64
			for _, v := range r.PerThread {
				busy += v
			}
			if busy < total-1e-6 {
				t.Fatalf("%v: work lost: %v < %v", p, busy, total)
			}
		}
	}
}

func TestDynamicBeatsStaticOnSkewedLoad(t *testing.T) {
	// A sorted-descending cost pattern with a few huge chunks up front:
	// static's contiguous blocks give thread 0 all the heavy work.
	costs := make([]float64, 256)
	for i := range costs {
		costs[i] = 1
	}
	for i := 0; i < 16; i++ {
		costs[i] = 100
	}
	static := Simulate(costs, 16, sched.Static, 0)
	dynamic := Simulate(costs, 16, sched.Dynamic, 0)
	guided := Simulate(costs, 16, sched.Guided, 0)
	if dynamic.Makespan >= static.Makespan {
		t.Fatalf("dynamic %v >= static %v", dynamic.Makespan, static.Makespan)
	}
	if guided.Makespan >= static.Makespan {
		t.Fatalf("guided %v >= static %v", guided.Makespan, static.Makespan)
	}
}

func TestDynamicNearOptimalOnUniformLoad(t *testing.T) {
	costs := make([]float64, 1024)
	for i := range costs {
		costs[i] = 2
	}
	r := Simulate(costs, 32, sched.Dynamic, 0)
	ideal := totalCost(costs) / 32
	if r.Makespan > ideal*1.01 {
		t.Fatalf("dynamic makespan %v far above ideal %v", r.Makespan, ideal)
	}
	if got := r.Imbalance(); got > 0.01 {
		t.Fatalf("imbalance %v", got)
	}
}

func TestDispatchOverheadCounted(t *testing.T) {
	costs := make([]float64, 100)
	for i := range costs {
		costs[i] = 1
	}
	noOv := Simulate(costs, 4, sched.Dynamic, 0)
	withOv := Simulate(costs, 4, sched.Dynamic, 0.5)
	if withOv.Makespan <= noOv.Makespan {
		t.Fatalf("overhead ignored: %v <= %v", withOv.Makespan, noOv.Makespan)
	}
	// sched.Guided dispatches far fewer chunks than dynamic,1 on uniform loads.
	guided := Simulate(costs, 4, sched.Guided, 0.5)
	if guided.Chunks >= withOv.Chunks {
		t.Fatalf("guided chunks %d >= dynamic chunks %d", guided.Chunks, withOv.Chunks)
	}
}

// sched.Dynamic dispatches one iteration at a time and sched.Guided shrinks its
// grants down to one iteration, so both cover every iteration; sched.Static
// dispatches one block per thread.
func TestSimulateChunkSizes(t *testing.T) {
	costs := randCosts(rand.New(rand.NewSource(61)), 333, 1)
	for _, c := range []struct {
		p        sched.Policy
		min, max int
	}{{sched.Static, 8, 8}, {sched.Dynamic, 333, 333}, {sched.Guided, 9, 332}} {
		r := Simulate(costs, 8, c.p, 0)
		if r.Chunks < c.min || r.Chunks > c.max {
			t.Errorf("%v: %d chunks, want %d to %d", c.p, r.Chunks, c.min, c.max)
		}
		if r.Makespan < totalCost(costs)/8-1e-9 {
			t.Errorf("%v: impossible makespan", c.p)
		}
	}
}

func TestSimulateEmptyAndDegenerate(t *testing.T) {
	r := Simulate(nil, 8, sched.Dynamic, 0)
	if r.Makespan != 0 || r.Chunks != 0 {
		t.Fatalf("empty: %+v", r)
	}
	r = Simulate([]float64{5}, 0, sched.Static, 0) // threads clamped
	if r.Makespan != 5 {
		t.Fatalf("degenerate: %+v", r)
	}
}

func TestStaticDeterministicPartition(t *testing.T) {
	costs := randCosts(rand.New(rand.NewSource(62)), 97, 1)
	a := Simulate(costs, 10, sched.Static, 0)
	b := Simulate(costs, 10, sched.Static, 0)
	for i := range a.PerThread {
		if a.PerThread[i] != b.PerThread[i] {
			t.Fatal("static schedule not deterministic")
		}
	}
}

// Property: makespan is monotonically non-increasing in thread count for
// dynamic scheduling (more threads never hurt without contention).
func TestDynamicMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		costs := randCosts(r, r.Intn(200)+1, 2)
		prev := Simulate(costs, 1, sched.Dynamic, 0).Makespan
		for _, th := range []int{2, 4, 8, 16} {
			cur := Simulate(costs, th, sched.Dynamic, 0).Makespan
			if cur > prev+1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestScheduleChunksBalance(t *testing.T) {
	// Worker 1 is 3x faster than worker 0; over many equal chunks it must
	// claim roughly 3x as many, and the makespan must stay within one
	// chunk of the perfectly balanced completion time.
	n := 200
	cost := func(chunk, worker int) float64 {
		if worker == 1 {
			return 1
		}
		return 3
	}
	s := scheduleChunks(n, 2, nil, cost)
	if s.Chunks[0]+s.Chunks[1] != n {
		t.Fatalf("chunks lost: %v", s.Chunks)
	}
	ratio := float64(s.Chunks[1]) / float64(s.Chunks[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("fast worker claimed %v (ratio %.2f, want ~3)", s.Chunks, ratio)
	}
	// Aggregate rate 1/3+1 chunks per unit -> ideal makespan n/(4/3).
	ideal := float64(n) / (4.0 / 3.0)
	if s.Makespan < ideal || s.Makespan > ideal+3 {
		t.Fatalf("makespan %v, ideal %v", s.Makespan, ideal)
	}
	if s.Makespan != max(s.Busy[0], s.Busy[1]) {
		t.Fatalf("makespan %v != max busy %v", s.Makespan, s.Busy)
	}
}

func TestScheduleChunksDeterministicAndSeeded(t *testing.T) {
	cost := func(chunk, worker int) float64 { return float64(chunk%7 + worker + 1) }
	a := scheduleChunks(50, 3, []float64{5, 0, 0}, cost)
	b := scheduleChunks(50, 3, []float64{5, 0, 0}, cost)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("nondeterministic assignment at chunk %d", i)
		}
	}
	if a.Busy[0] < 5 {
		t.Fatalf("start offset ignored: busy %v", a.Busy)
	}
	// A heavily penalised worker should claim nothing.
	s := scheduleChunks(10, 2, []float64{1e12, 0}, cost)
	if s.Chunks[0] != 0 || s.Chunks[1] != 10 {
		t.Fatalf("seeded-out worker still claimed chunks: %v", s.Chunks)
	}
}

func TestChunkSizesConservation(t *testing.T) {
	for _, p := range []sched.Policy{sched.Dynamic, sched.Guided} {
		for _, total := range []int64{1, 7, 1000, 54321} {
			sizes := chunkSizes(p, total, 3, 10)
			var sum int64
			for _, s := range sizes {
				if s <= 0 {
					t.Fatalf("%v total %d: non-positive chunk %d", p, total, s)
				}
				sum += s
			}
			if sum != total {
				t.Fatalf("%v total %d: chunks sum to %d", p, total, sum)
			}
		}
	}
	if chunkSizes(sched.Dynamic, 0, 3, 10) != nil {
		t.Fatal("zero total must yield no chunks")
	}
}

func TestChunkSizesShapes(t *testing.T) {
	dyn := chunkSizes(sched.Dynamic, 100, 4, 10)
	if len(dyn) != 10 {
		t.Fatalf("dynamic: %d chunks, want 10", len(dyn))
	}
	for _, s := range dyn {
		if s != 10 {
			t.Fatalf("dynamic chunk %d, want 10", s)
		}
	}
	g := chunkSizes(sched.Guided, 10000, 2, 5)
	if len(g) < 3 {
		t.Fatalf("guided produced only %d chunks", len(g))
	}
	for i := 1; i < len(g); i++ {
		if g[i] > g[i-1] {
			t.Fatalf("guided chunks grow at %d: %v", i, g[:i+1])
		}
	}
	if g[0] != 10000/4 {
		t.Fatalf("first guided chunk %d, want remaining/(2*workers) = 2500", g[0])
	}
}
