package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"heterosw/internal/datagen"
	"heterosw/internal/device"
)

func xeonPhiPhi() []*device.Model {
	return []*device.Model{device.Xeon(), device.Phi(), device.Phi()}
}

func randLengths(rng *rand.Rand, n, lo, span int) []int {
	lengths := make([]int, n)
	for i := range lengths {
		lengths[i] = lo + rng.Intn(span)
	}
	return lengths
}

// planGolden is testdata/plan_golden.json: the planner's output at the
// commit before execution and simulation were split (PR 14), over
// datagen.Lengths(datagen.SwissProtConfig(0.01)) with defaultSearchOptions.
type planGolden struct {
	Estimates []struct {
		Device   string  `json:"device"`
		QueryLen int     `json:"query_len"`
		Seconds  float64 `json:"seconds"`
	} `json:"estimates"`
	Plans []struct {
		Roster      string    `json:"roster"`
		Dist        string    `json:"dist"`
		FixedShares []float64 `json:"fixed_shares"`
		QueryLen    int       `json:"query_len"`
		Makespan    float64   `json:"makespan"`
		Seconds     []float64 `json:"seconds"`
		Shares      []float64 `json:"shares"`
		Chunks      []int     `json:"chunks"`
	} `json:"plans"`
}

// The planner's numbers are pinned: moving the code that computes them must
// not move them.
func TestPlanGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/plan_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g planGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Estimates) != 6 || len(g.Plans) != 24 {
		t.Fatalf("golden holds %d estimates and %d plans, want 6 and 24", len(g.Estimates), len(g.Plans))
	}
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s = %v, golden %v", what, got, want)
		}
	}
	lengths := datagen.Lengths(datagen.SwissProtConfig(0.01))
	opt := defaultSearchOptions()
	models := device.Devices()
	for _, e := range g.Estimates {
		same(e.Device+" estimateSeconds", estimateSeconds(lengths, e.QueryLen, models[e.Device], opt), e.Seconds)
	}
	for _, p := range g.Plans {
		var roster []*device.Model
		for _, kind := range strings.Split(p.Roster, ",") {
			roster = append(roster, models[kind])
		}
		dist, err := ParseDistribution(p.Dist)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PlanLengths(lengths, p.QueryLen, roster, DispatchOptions{Search: opt, Dist: dist, Shares: p.FixedShares})
		if err != nil {
			t.Fatal(err)
		}
		name := p.Roster + " " + p.Dist
		same(name+" makespan", got.Makespan, p.Makespan)
		for i := range roster {
			same(name+" seconds", got.Seconds[i], p.Seconds[i])
			same(name+" share", got.Shares[i], p.Shares[i])
			if got.Chunks[i] != p.Chunks[i] {
				t.Errorf("%s: device %d chunks = %d, golden %d", name, i, got.Chunks[i], p.Chunks[i])
			}
		}
	}
}

func TestSearchOnPhiChargesTransfers(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	sec := estimateSeconds(randLengths(rng, 100, 1, 100), 200, device.Phi(), defaultSearchOptions())
	// The transfer+latency floor: at least two PCIe latencies.
	if sec < 2*device.Phi().PCIeLatencySec {
		t.Fatalf("Phi search %vs does not include transfer costs", sec)
	}
}

// With >=3 modelled devices the dynamic chunk queue's predicted makespan
// must not exceed the best static split found over a share grid that
// includes the model-balanced (auto) shares.
func TestDispatcherDynamicBeatsBestStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	lengths := randLengths(rng, 6000, 80, 500)
	opt := DispatchOptions{Search: defaultSearchOptions()}
	queryLen := 500

	best := math.Inf(1)
	var bestShares []float64
	try := func(shares []float64) {
		o := opt
		o.Dist = DistStatic
		o.Shares = shares
		p, err := PlanLengths(lengths, queryLen, xeonPhiPhi(), o)
		if err != nil {
			t.Fatalf("static %v: %v", shares, err)
		}
		if p.Makespan < best {
			best = p.Makespan
			bestShares = shares
		}
	}
	try(nil)                      // model-balanced auto shares
	for ai := 0; ai <= 12; ai++ { // xeon share 0..0.60 in 0.05 steps
		for bi := 0; ai+bi <= 20; bi++ {
			a, b := float64(ai)/20, float64(bi)/20
			c := 1 - a - b
			if c < 0 {
				c = 0
			}
			try([]float64{a, b, c})
		}
	}

	for _, dist := range []Distribution{DistDynamic, DistGuided} {
		o := opt
		o.Dist = dist
		p, err := PlanLengths(lengths, queryLen, xeonPhiPhi(), o)
		if err != nil {
			t.Fatal(err)
		}
		if p.Makespan > best {
			t.Fatalf("%v makespan %.6fs exceeds best static %.6fs (shares %v)",
				dist, p.Makespan, best, bestShares)
		}
	}
}

func TestPlanLengthsErrors(t *testing.T) {
	lengths := []int{30, 40, 50}
	plan := func(roster []*device.Model, o DispatchOptions) error {
		o.Search = defaultSearchOptions()
		_, err := PlanLengths(lengths, 20, roster, o)
		return err
	}
	if plan(nil, DispatchOptions{}) == nil {
		t.Error("empty roster accepted")
	}
	if plan([]*device.Model{nil}, DispatchOptions{}) == nil {
		t.Error("nil device model accepted")
	}
	if plan(xeonPhiPhi(), DispatchOptions{Shares: []float64{0.5, 0.5}}) == nil {
		t.Error("share/device count mismatch accepted")
	}
	if plan(xeonPhiPhi(), DispatchOptions{Shares: []float64{-1, 1, 1}}) == nil {
		t.Error("negative share accepted")
	}
	if plan(xeonPhiPhi(), DispatchOptions{Shares: []float64{0, 0, 0}}) == nil {
		t.Error("all-zero shares accepted")
	}
	if plan(xeonPhiPhi(), DispatchOptions{Dist: Distribution(9)}) == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestParseDistribution(t *testing.T) {
	for _, d := range []Distribution{DistStatic, DistDynamic, DistGuided} {
		got, err := ParseDistribution(d.String())
		if err != nil || got != d {
			t.Fatalf("round trip %v: %v %v", d, got, err)
		}
	}
	if _, err := ParseDistribution("adaptive"); err == nil {
		t.Error("bogus distribution accepted")
	}
}

func TestOptimalSharesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	lengths := randLengths(rng, 2000, 60, 400)
	shares := OptimalShares(lengths, 300, defaultSearchOptions(), xeonPhiPhi())
	var sum float64
	for i, s := range shares {
		if s <= 0 || s >= 1 {
			t.Fatalf("share %d = %v outside (0,1)", i, s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	// The two identical Phi devices must receive identical shares.
	if math.Abs(shares[1]-shares[2]) > 1e-9 {
		t.Fatalf("identical devices got different shares: %v", shares)
	}
	// Model-balanced shares of Algorithm 2's pair beat a lopsided pinned
	// split that gives the Phi 90% of the residues.
	static := func(shares []float64) float64 {
		t.Helper()
		opt := DispatchOptions{Search: defaultSearchOptions(), Shares: shares}
		p, err := PlanLengths(lengths, 300, []*device.Model{device.Phi(), device.Xeon()}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return p.Makespan
	}
	if auto, lopsided := static(nil), static([]float64{0.9, 0.1}); auto > lopsided*1.02 {
		t.Fatalf("model-balanced split (%v s) worse than a 90%% Phi share (%v s)", auto, lopsided)
	}
	// Degenerate inputs fall back to equal shares.
	eq := OptimalShares(nil, 300, defaultSearchOptions(), xeonPhiPhi())
	for _, s := range eq {
		if math.Abs(s-1.0/3) > 1e-9 {
			t.Fatalf("empty-database shares %v, want equal", eq)
		}
	}
}
