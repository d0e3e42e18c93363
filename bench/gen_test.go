package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// render is every byte a workload's inputs put in front of the program: the
// FASTA file, the set-up request bodies, and the round's.
func render(t *testing.T, w workload, seed uint64) []byte {
	t.Helper()
	in := generate(w, quickScale, seed)
	path := filepath.Join(t.TempDir(), "db.fasta")
	if err := writeFASTA(path, in.db.recs); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range append(append([]op(nil), in.setup...), in.round...) {
		out = append(out, o.body...)
	}
	return out
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range workloads {
		a, b, c := render(t, w, 7), render(t, w, 7), render(t, w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 rendered two different inputs", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 rendered the same inputs", w.name)
		}
	}
}

// The workload definitions promise which inputs are shared.
func TestWorkloadsShareWhatTheySay(t *testing.T) {
	gen := func(name string) *inputs {
		w, ok := workloadByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		return generate(w, quickScale, 3)
	}
	long, short := gen("batch_long"), gen("batch_short")
	if !bytes.Equal(long.round[0].body, short.round[0].body) {
		t.Error("batch_long and batch_short post different batches")
	}
	n := len(short.db.recs)
	if len(long.db.recs) <= n {
		t.Fatal("batch_long's database has no tail")
	}
	for i, r := range short.db.recs {
		if long.db.recs[i].ID != r.ID || !bytes.Equal(long.db.recs[i].Res, r.Res) {
			t.Fatalf("batch_long's body differs from batch_short's at %d", i)
		}
	}
	for _, r := range long.db.recs[n:] {
		if len(r.Res) <= bodyMaxLen {
			t.Errorf("tail subject %s has only %d residues", r.ID, len(r.Res))
		}
	}
	distinct, fanout := gen("serve_distinct"), gen("coord_fanout")
	if len(distinct.round) != len(fanout.round) {
		t.Fatal("serve_distinct and coord_fanout rounds differ in length")
	}
	for i := range distinct.round {
		if !bytes.Equal(distinct.round[i].body, fanout.round[i].body) {
			t.Fatalf("serve_distinct and coord_fanout differ at request %d", i)
		}
	}
	// Cold workloads never repeat a query within a server lifetime.
	seen := make(map[string]bool)
	for _, q := range distinct.warm {
		seen[string(q.Res)] = true
	}
	for _, o := range distinct.round {
		if res := string(o.queries[0].Res); seen[res] {
			t.Errorf("serve_distinct repeats query %s", o.queries[0].ID)
		} else {
			seen[res] = true
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
