package remote

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heterosw/internal/remote/faultproxy"
)

// fakeNode serves a /shards listing for the given keys — the minimum a
// prober target needs.
func fakeNode(t *testing.T, keys ...string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/shards" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"alphabet":"protein","shards":[`)
		for i, k := range keys {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, `{"key":%q,"sequences":1,"residues":10}`, k)
		}
		fmt.Fprint(w, `]}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// proxiedNode is a fakeNode behind a faultproxy, so tests can kill and
// revive it deterministically.
func proxiedNode(t *testing.T, keys ...string) *faultproxy.Proxy {
	t.Helper()
	up := fakeNode(t, keys...)
	p, err := faultproxy.New(up.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func stateOf(t *testing.T, p *Prober, url string) NodeHealth {
	t.Helper()
	for _, h := range p.Health() {
		if h.URL == url {
			return h
		}
	}
	t.Fatalf("node %s not in Health()", url)
	return NodeHealth{}
}

// TestProberStateMachine walks one node through the full lifecycle:
// unprobed (degraded) -> healthy -> degraded on first failure -> dead
// after DeadAfter consecutive failures -> readopted healthy on recovery,
// with the failure streak and last-error fields tracking each move.
func TestProberStateMachine(t *testing.T) {
	px := proxiedNode(t, "k0", "k1")
	p := NewProber([]string{px.URL()}, fastOptions(Options{}), ProberOptions{Interval: -1, DeadAfter: 3})
	ctx := context.Background()

	if h := stateOf(t, p, px.URL()); h.State != NodeDegraded {
		t.Fatalf("unprobed state = %v, want degraded", h.State)
	}
	p.ProbeAll(ctx)
	h := stateOf(t, p, px.URL())
	if h.State != NodeHealthy || h.ConsecutiveFailures != 0 || h.LastError != "" {
		t.Fatalf("after clean probe: %+v, want healthy with no failures", h)
	}
	if len(h.Shards) != 2 || h.Shards[0] != "k0" || h.Shards[1] != "k1" {
		t.Fatalf("reported shards %v, want [k0 k1]", h.Shards)
	}
	if h.LatencyEWMA <= 0 || h.LatencyP50 <= 0 {
		t.Fatalf("latency not recorded: %+v", h)
	}

	px.SetDown(true)
	for i := 1; i <= 2; i++ {
		p.ProbeAll(ctx)
		h = stateOf(t, p, px.URL())
		if h.State != NodeDegraded || h.ConsecutiveFailures != i {
			t.Fatalf("after %d failures: state %v streak %d, want degraded/%d", i, h.State, h.ConsecutiveFailures, i)
		}
		if h.LastError == "" {
			t.Fatalf("failure %d recorded no error", i)
		}
	}
	p.ProbeAll(ctx)
	if h = stateOf(t, p, px.URL()); h.State != NodeDead || h.ConsecutiveFailures != 3 {
		t.Fatalf("after 3 failures: state %v streak %d, want dead/3", h.State, h.ConsecutiveFailures)
	}
	// A dead node keeps its last shard report for the operator.
	if len(h.Shards) != 2 {
		t.Fatalf("dead node lost its shard report: %v", h.Shards)
	}

	px.SetDown(false)
	p.ProbeAll(ctx)
	if h = stateOf(t, p, px.URL()); h.State != NodeHealthy || h.ConsecutiveFailures != 0 || h.LastError != "" {
		t.Fatalf("readopted node: %+v, want healthy with the streak reset", h)
	}
}

// TestProberOwners pins the replica ordering contract: healthy owners
// first, then degraded, each group in roster order; dead nodes excluded.
// The ordering is what keeps a freshly constructed coordinator's replica
// order identical to the old sequential-probe construction, so the
// conformance guarantee is ordering-stable.
func TestProberOwners(t *testing.T) {
	a := proxiedNode(t, "k0", "k1")
	b := proxiedNode(t, "k0")
	c := proxiedNode(t, "k1")
	p := NewProber([]string{a.URL(), b.URL(), c.URL()}, fastOptions(Options{}), ProberOptions{Interval: -1, DeadAfter: 2})
	ctx := context.Background()

	p.ProbeAll(ctx)
	if got, want := p.Owners("k0"), []string{a.URL(), b.URL()}; !equalStrings(got, want) {
		t.Fatalf("k0 owners %v, want %v (roster order)", got, want)
	}
	if got, want := p.Owners("k1"), []string{a.URL(), c.URL()}; !equalStrings(got, want) {
		t.Fatalf("k1 owners %v, want %v (roster order)", got, want)
	}

	// One failure demotes a to degraded: it must drop behind b but stay
	// routable.
	a.SetDown(true)
	p.ProbeAll(ctx)
	if got, want := p.Owners("k0"), []string{b.URL(), a.URL()}; !equalStrings(got, want) {
		t.Fatalf("degraded owners %v, want %v (healthy first)", got, want)
	}

	// The second failure kills it: its shards fail over entirely.
	p.ProbeAll(ctx)
	if got, want := p.Owners("k0"), []string{b.URL()}; !equalStrings(got, want) {
		t.Fatalf("post-death k0 owners %v, want %v", got, want)
	}
	if got, want := p.Owners("k1"), []string{c.URL()}; !equalStrings(got, want) {
		t.Fatalf("post-death k1 owners %v, want %v", got, want)
	}

	// Recovery readopts it at healthy preference.
	a.SetDown(false)
	p.ProbeAll(ctx)
	if got, want := p.Owners("k0"), []string{a.URL(), b.URL()}; !equalStrings(got, want) {
		t.Fatalf("readopted owners %v, want %v", got, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestProberProbeErrors pins the "url: error" shape and roster order the
// coordinator's probeSuffix joins into construction failures.
func TestProberProbeErrors(t *testing.T) {
	good := proxiedNode(t, "k0")
	bad := proxiedNode(t, "k1")
	bad.SetDown(true)
	p := NewProber([]string{good.URL(), bad.URL()}, fastOptions(Options{}), ProberOptions{Interval: -1})
	p.ProbeAll(context.Background())

	errs := p.ProbeErrors()
	if len(errs) != 1 {
		t.Fatalf("ProbeErrors() = %v, want exactly the dead node's", errs)
	}
	if !strings.HasPrefix(errs[0].Error(), bad.URL()+": ") {
		t.Fatalf("probe error %q must lead with the node URL", errs[0])
	}
}

// TestProberQuantilesOrdered sanity-checks the latency accounting: after
// a run of successful probes the quantiles are populated and ordered.
func TestProberQuantilesOrdered(t *testing.T) {
	px := proxiedNode(t, "k0")
	p := NewProber([]string{px.URL()}, fastOptions(Options{}), ProberOptions{Interval: -1})
	const probes = latencyWindow + 8 // overfill the window to exercise the ring wrap
	for i := 0; i < probes; i++ {
		p.ProbeAll(context.Background())
	}
	h := stateOf(t, p, px.URL())
	if h.Probes != probes {
		t.Fatalf("Probes = %d, want %d", h.Probes, probes)
	}
	if h.LatencyP50 <= 0 || h.LatencyP50 > h.LatencyP90 || h.LatencyP90 > h.LatencyP99 {
		t.Fatalf("quantiles out of order: p50 %v p90 %v p99 %v", h.LatencyP50, h.LatencyP90, h.LatencyP99)
	}
}

// TestProberBackgroundLoop exercises Start/Stop with a real ticker: the
// loop sweeps on its own, reacts to Kick, and Stop terminates it.
func TestProberBackgroundLoop(t *testing.T) {
	px := proxiedNode(t, "k0")
	p := NewProber([]string{px.URL()}, fastOptions(Options{}), ProberOptions{Interval: 2 * time.Millisecond})
	p.Start()
	deadline := time.Now().Add(10 * time.Second)
	for p.Health()[0].Probes < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never swept twice")
		}
		time.Sleep(time.Millisecond)
	}
	p.Kick(px.URL())
	p.Stop()
	p.Stop() // idempotent
	if h := stateOf(t, p, px.URL()); h.State != NodeHealthy {
		t.Fatalf("looped prober left node %v, want healthy", h.State)
	}
}

// TestProberKickWithoutLoop pins that Kick on a loop-disabled prober is a
// dropped no-op — deterministic tests must never get surprise probes.
func TestProberKickWithoutLoop(t *testing.T) {
	px := proxiedNode(t, "k0")
	p := NewProber([]string{px.URL()}, fastOptions(Options{}), ProberOptions{Interval: -1})
	p.Start() // no-op: interval disabled
	for i := 0; i < 100; i++ {
		p.Kick(px.URL()) // must never block, even far past the buffer
	}
	if h := stateOf(t, p, px.URL()); h.Probes != 0 {
		t.Fatalf("disabled prober ran %d probes off Kick, want 0", h.Probes)
	}
	p.Stop()
}
