package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func sorted(xs []string) string {
	sort.Strings(xs)
	return strings.Join(xs, " ")
}

func TestDeclaredNamesMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	var have, want []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	for _, w := range d.Workloads {
		want = append(want, w.Name)
	}
	if sorted(have) != sorted(want) {
		t.Errorf("workloads: program has %q, BENCHMARK.json %q", have, want)
	}
	pairs := func(defs []metricDef) []string {
		var out []string
		for _, m := range defs {
			out = append(out, m.name+"["+m.unit+"]")
		}
		return out
	}
	have, want = pairs(endToEndMetrics), nil
	for _, m := range d.EndToEnd {
		want = append(want, m.Name+"["+m.Unit+"]")
	}
	if sorted(have) != sorted(want) {
		t.Errorf("end_to_end: program has %q, BENCHMARK.json %q", have, want)
	}
	have, want = pairs(perLayerMetrics), nil
	for _, m := range d.PerLayer {
		want = append(want, m.Name+"["+m.Unit+"]")
	}
	if sorted(have) != sorted(want) {
		t.Errorf("per_layer: program has %q, BENCHMARK.json %q", have, want)
	}
	for _, w := range workloads {
		if n := w.lifetimes(d.RunSeconds); n < 2 || n > 3 {
			t.Errorf("%s: %d lifetimes at run_seconds %v; the driver's time budget was sized for 2-3", w.name, n, d.RunSeconds)
		}
	}
}

// TestQuickEndToEnd drives the real binaries at -quick scale through every
// workload, untraced and traced, and holds what it prints against
// BENCHMARK.json: every declared workload, every declared metric and no
// other, each result line well-formed, nothing failed, spans written, no
// child left behind.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the servers")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "heterosw/cmd/swserve", "heterosw/cmd/swindex")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var out bytes.Buffer
	b := &bench{
		cfg: config{
			workloads: workloads, seed: 1, seconds: 1, trace: -1, rounds: 1, quick: true,
			bin: dir, work: dir, out: filepath.Join(dir, "out"),
		},
		ps: newProcSet(), scratch: filepath.Join(dir, "scratch"), w: &out,
	}
	err := b.run(context.Background())
	b.ps.stopAll()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if n := len(b.ps.live); n != 0 {
		t.Errorf("%d children still registered", n)
	}

	d := readDeclared(t)
	var lines []resultLine
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			var r resultLine
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			lines = append(lines, r)
		}
	}
	if len(lines) != 2*len(d.Workloads) {
		t.Fatalf("%d result lines for %d workloads\n%s", len(lines), len(d.Workloads), out.String())
	}
	for i, r := range lines {
		w := d.Workloads[i/2].Name // run order is declaration order: untraced, then traced
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, r.Correct, r.Attempted, r.Failed)
		}
		var have, want []string
		for name, v := range r.Metrics {
			have = append(have, name+"["+v.Unit+"]")
		}
		if i%2 == 0 {
			for _, m := range d.EndToEnd {
				want = append(want, m.Name+"["+m.Unit+"]")
				if r.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w, m.Name, r.Metrics[m.Name].Value)
				}
			}
		} else {
			for _, m := range d.PerLayer {
				want = append(want, m.Name+"["+m.Unit+"]")
			}
			hit := r.Metrics["qsched.cache_hit_ratio"].Value
			if wantHit := map[bool]float64{true: 1, false: 0}[w == "serve_hot"]; hit != wantHit {
				t.Errorf("%s: cache hit ratio %v, want %v", w, hit, wantHit)
			}
		}
		if sorted(have) != sorted(want) {
			t.Errorf("%s line %d: printed %q, declared %q", w, i%2, have, want)
		}
		if !strings.Contains(out.String(), w+" ") {
			t.Errorf("%s missing from the table", w)
		}
	}
	for _, w := range d.Workloads {
		if st, err := os.Stat(filepath.Join(dir, "out", w.Name, "spans.jsonl")); err != nil || st.Size() == 0 {
			t.Errorf("%s: no spans.jsonl (%v)", w.Name, err)
		}
	}
}
