package seqdb

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"heterosw/internal/device"
	"heterosw/internal/profile"
	"heterosw/internal/sequence"
)

func makeSeqs(rng *rand.Rand, n, maxLen int) []*sequence.Sequence {
	letters := "ARNDCQEGHILKMFPSTWYV"
	out := make([]*sequence.Sequence, n)
	for i := range out {
		L := rng.Intn(maxLen) + 1
		var sb strings.Builder
		for j := 0; j < L; j++ {
			sb.WriteByte(letters[rng.Intn(len(letters))])
		}
		out[i] = sequence.FromString(string(rune('A'+i%26))+"seq", sb.String())
	}
	return out
}

func TestNewStats(t *testing.T) {
	seqs := []*sequence.Sequence{
		sequence.FromString("a", "ARND"),
		sequence.FromString("b", "AR"),
		sequence.FromString("c", "ARNDCQ"),
	}
	db := New(seqs, true)
	if db.Len() != 3 || db.Residues() != 12 || db.MaxLen() != 6 {
		t.Fatalf("stats wrong: %s", db)
	}
	if db.MeanLen() != 4 {
		t.Fatalf("MeanLen = %v", db.MeanLen())
	}
	if !db.Sorted() {
		t.Fatal("Sorted() = false")
	}
}

func TestSortOrderShortestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	seqs := makeSeqs(rng, 100, 50)
	db := New(seqs, true)
	groups := db.Groups(1)
	prev := 0
	for _, g := range groups {
		if g.Lens[0] < prev {
			t.Fatalf("order not ascending: %d after %d", g.Lens[0], prev)
		}
		prev = g.Lens[0]
	}
}

func TestUnsortedKeepsOrder(t *testing.T) {
	seqs := []*sequence.Sequence{
		sequence.FromString("a", "AR"),
		sequence.FromString("b", "ARNDCQ"),
	}
	db := New(seqs, false)
	groups := db.Groups(1)
	if groups[0].SeqIdx[0] != 0 || groups[1].SeqIdx[0] != 1 {
		t.Fatal("unsorted database reordered sequences")
	}
}

func TestGroupsInterleaving(t *testing.T) {
	seqs := []*sequence.Sequence{
		sequence.FromString("a", "ARND"),
		sequence.FromString("b", "WY"),
		sequence.FromString("c", "CCC"),
	}
	db := New(seqs, true) // ascending order: b(2), c(3), a(4)
	groups := db.Groups(2)
	if len(groups) != 2 {
		t.Fatalf("got %d groups", len(groups))
	}
	g := groups[0]
	if g.Width != 3 || g.Lanes != 2 {
		t.Fatalf("group shape %d x %d", g.Width, g.Lanes)
	}
	if g.SeqIdx[0] != 1 || g.SeqIdx[1] != 2 {
		t.Fatalf("group members %v", g.SeqIdx)
	}
	// Column 0: residues W (from b) and C (from c); column 2: pad and C.
	b0 := seqs[1].Residues[0]
	c0 := seqs[2].Residues[0]
	if g.Interleaved[0] != uint8(b0) || g.Interleaved[1] != uint8(c0) {
		t.Fatalf("column 0 = %v", g.Interleaved[:2])
	}
	if g.Interleaved[2*2+0] != profile.PadIndex {
		t.Fatalf("lane 0 tail not padded: %d", g.Interleaved[2*2+0])
	}
	if g.Residues != 5 {
		t.Fatalf("group residues %d", g.Residues)
	}
	// Second group: single member a, one empty lane.
	g2 := groups[1]
	if g2.SeqIdx[0] != 0 || g2.SeqIdx[1] != -1 || g2.Lens[1] != 0 {
		t.Fatalf("tail group %v / %v", g2.SeqIdx, g2.Lens)
	}
	for j := 0; j < g2.Width; j++ {
		if g2.Interleaved[j*2+1] != profile.PadIndex {
			t.Fatalf("empty lane has residue at column %d", j)
		}
	}
}

func TestGroupsCoverDatabaseExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	seqs := makeSeqs(rng, 137, 80)
	db := New(seqs, true)
	for _, lanes := range []int{1, 4, 16, 32} {
		groups := db.Groups(lanes)
		seen := make(map[int]int)
		var residues int64
		for _, g := range groups {
			for l, idx := range g.SeqIdx {
				if idx == -1 {
					if g.Lens[l] != 0 {
						t.Fatalf("empty lane with length %d", g.Lens[l])
					}
					continue
				}
				seen[idx]++
				if g.Lens[l] != seqs[idx].Len() {
					t.Fatalf("lane length mismatch for seq %d", idx)
				}
			}
			residues += g.Residues
		}
		if len(seen) != len(seqs) {
			t.Fatalf("lanes=%d: %d distinct sequences, want %d", lanes, len(seen), len(seqs))
		}
		for idx, c := range seen {
			if c != 1 {
				t.Fatalf("sequence %d packed %d times", idx, c)
			}
		}
		if residues != db.Residues() {
			t.Fatalf("lanes=%d: group residues %d != %d", lanes, residues, db.Residues())
		}
	}
}

func TestSortedPackingBeatsUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	seqs := makeSeqs(rng, 512, 400)
	sorted := PaddingEfficiency(New(seqs, true).Groups(16))
	unsorted := PaddingEfficiency(New(seqs, false).Groups(16))
	if sorted <= unsorted {
		t.Fatalf("sorted efficiency %.3f <= unsorted %.3f", sorted, unsorted)
	}
	if sorted < 0.9 {
		t.Fatalf("sorted packing efficiency %.3f unexpectedly poor", sorted)
	}
}

func TestSplitFractions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seqs := makeSeqs(rng, 400, 120)
	db := New(seqs, true)
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.55, 0.9} {
		parts, idx := db.SplitN([]float64{frac, 1 - frac})
		first, second, firstIdx, secondIdx := parts[0], parts[1], idx[0], idx[1]
		if first.Len()+second.Len() != db.Len() {
			t.Fatalf("frac %.2f: split loses sequences", frac)
		}
		if first.Residues()+second.Residues() != db.Residues() {
			t.Fatalf("frac %.2f: split loses residues", frac)
		}
		got := float64(first.Residues()) / float64(db.Residues())
		if got < frac-0.03 || got > frac+0.03 {
			t.Fatalf("frac %.2f: first half has %.3f of residues", frac, got)
		}
		for j, pi := range firstIdx {
			if first.Seq(j) != db.Seq(pi) {
				t.Fatalf("frac %.2f: firstIdx[%d]=%d maps to the wrong sequence", frac, j, pi)
			}
		}
		for j, pi := range secondIdx {
			if second.Seq(j) != db.Seq(pi) {
				t.Fatalf("frac %.2f: secondIdx[%d]=%d maps to the wrong sequence", frac, j, pi)
			}
		}
	}
}

func TestSplitEdges(t *testing.T) {
	db := New(makeSeqs(rand.New(rand.NewSource(24)), 10, 30), true)
	parts, _ := db.SplitN([]float64{0, 1})
	if parts[0].Len() != 0 || parts[1].Len() != 10 {
		t.Fatalf("SplitN(0, 1) = %d/%d", parts[0].Len(), parts[1].Len())
	}
	parts, _ = db.SplitN([]float64{1, 0})
	if parts[0].Len() != 10 || parts[1].Len() != 0 {
		t.Fatalf("SplitN(1, 0) = %d/%d", parts[0].Len(), parts[1].Len())
	}
}

// Property: SplitN partitions the index space exactly — every parent index
// appears in exactly one shard mapping, mappings agree with shard content,
// and realised fractions track the requested ones.
func TestSplitNMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	db := New(makeSeqs(rng, 600, 150), true)
	fracs := []float64{0.2, 0.5, 0.3}
	shards, idx := db.SplitN(fracs)
	if len(shards) != 3 || len(idx) != 3 {
		t.Fatalf("SplitN arity: %d shards, %d mappings", len(shards), len(idx))
	}
	seen := make(map[int]int)
	var total int64
	for i, sh := range shards {
		if sh.Len() != len(idx[i]) {
			t.Fatalf("shard %d: %d sequences, %d mapped indices", i, sh.Len(), len(idx[i]))
		}
		for j, pi := range idx[i] {
			if sh.Seq(j) != db.Seq(pi) {
				t.Fatalf("shard %d: idx[%d]=%d maps to the wrong sequence", i, j, pi)
			}
			seen[pi]++
		}
		total += sh.Residues()
		got := float64(sh.Residues()) / float64(db.Residues())
		if got < fracs[i]-0.05 || got > fracs[i]+0.05 {
			t.Fatalf("shard %d holds %.3f of residues, want ~%.2f", i, got, fracs[i])
		}
	}
	if total != db.Residues() {
		t.Fatalf("SplitN loses residues: %d != %d", total, db.Residues())
	}
	if len(seen) != db.Len() {
		t.Fatalf("%d distinct parent indices, want %d", len(seen), db.Len())
	}
	for pi, c := range seen {
		if c != 1 {
			t.Fatalf("parent index %d appears %d times", pi, c)
		}
	}
}

func TestDealGreedyEdges(t *testing.T) {
	if got := DealGreedy([]int{5, 7}, nil); got != nil {
		t.Fatalf("empty fracs: %v", got)
	}
	parts := DealGreedy(nil, []float64{0.5, 0.5})
	if len(parts) != 2 || parts[0] != nil || parts[1] != nil {
		t.Fatalf("empty lengths: %v", parts)
	}
	parts = DealGreedy([]int{3, 3, 3}, []float64{-1, 0})
	if len(parts[0])+len(parts[1]) != 3 {
		t.Fatalf("all-non-positive fracs lose items: %v", parts)
	}
}

// Property: for any lane width and any split fraction, no sequence is lost
// or duplicated across the split.
func TestSplitPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	f := func(n uint8, fr uint8) bool {
		seqs := makeSeqs(rng, int(n%60)+1, 50)
		db := New(seqs, true)
		frac := float64(fr%101) / 100
		parts, _ := db.SplitN([]float64{frac, 1 - frac})
		a, b := parts[0], parts[1]
		ids := make(map[*sequence.Sequence]int)
		for i := 0; i < a.Len(); i++ {
			ids[a.Seq(i)]++
		}
		for i := 0; i < b.Len(); i++ {
			ids[b.Seq(i)]++
		}
		if len(ids) != len(seqs) {
			return false
		}
		for _, c := range ids {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGroupsPanicsOnBadLanes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Groups(0) did not panic")
		}
	}()
	New(nil, true).Groups(0)
}

// PackShapes must reproduce the exact geometry Partition produces on a
// materialised database: the shape-only simulation path and the functional
// engine path must never diverge.
func TestPackShapesMatchesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	seqs := makeSeqs(rng, 300, 500)
	// Give a few sequences lengths beyond a routing threshold.
	seqs = append(seqs, sequence.FromString("long1", strings.Repeat("A", 700)))
	seqs = append(seqs, sequence.FromString("long2", strings.Repeat("W", 900)))
	db := New(seqs, true)
	lengths := make([]int, db.Len())
	for i := range lengths {
		lengths[i] = db.Seq(i).Len()
	}
	for _, lanes := range []int{1, 8, 16, 32} {
		for _, thr := range []int{0, 600} {
			groups, long := db.Partition(lanes, thr)
			shapes := PackShapes(lengths, lanes, true, thr)
			var fromGroups []device.Shape
			for _, idx := range long {
				l := db.Seq(idx).Len()
				fromGroups = append(fromGroups, device.Shape{Width: l, Lanes: 1, Residues: int64(l), Intra: true})
			}
			for _, g := range groups {
				fromGroups = append(fromGroups, device.Shape{Width: g.Width, Lanes: g.Lanes, Residues: g.Residues})
			}
			if len(shapes) != len(fromGroups) {
				t.Fatalf("lanes=%d thr=%d: %d shapes vs %d group shapes", lanes, thr, len(shapes), len(fromGroups))
			}
			// Same multiset: compare sorted by (Width, Residues).
			key := func(s device.Shape) [3]int64 {
				intra := int64(0)
				if s.Intra {
					intra = 1
				}
				return [3]int64{int64(s.Width), s.Residues, intra}
			}
			sortShapes := func(v []device.Shape) {
				sort.Slice(v, func(a, b int) bool {
					ka, kb := key(v[a]), key(v[b])
					for i := range ka {
						if ka[i] != kb[i] {
							return ka[i] < kb[i]
						}
					}
					return false
				})
			}
			sortShapes(shapes)
			sortShapes(fromGroups)
			for i := range shapes {
				if shapes[i] != fromGroups[i] {
					t.Fatalf("lanes=%d thr=%d: shape %d differs: %+v vs %+v",
						lanes, thr, i, shapes[i], fromGroups[i])
				}
			}
		}
	}
}

// TestEmptyDatabase pins the empty-database edge cases the index fuzz
// seeds exercise: a nil sequence slice is a valid input, MeanLen must not
// divide by zero, and every derived view stays well-defined.
func TestEmptyDatabase(t *testing.T) {
	for _, db := range []*Database{New(nil, true), New([]*sequence.Sequence{}, false)} {
		if db.Len() != 0 || db.Residues() != 0 || db.MaxLen() != 0 {
			t.Fatalf("empty database stats: %s", db)
		}
		if got := db.MeanLen(); got != 0 {
			t.Fatalf("MeanLen of empty database = %v, want 0 (no division by zero)", got)
		}
		groups, long := db.Partition(16, 3072)
		if len(groups) != 0 || len(long) != 0 {
			t.Fatalf("empty partition: %d groups, %d long", len(groups), len(long))
		}
		if got := len(db.OrderLengths()); got != 0 {
			t.Fatalf("OrderLengths length %d", got)
		}
		parts, idx := db.SplitN([]float64{0.5, 0.5})
		if len(parts) != 2 || parts[0].Len()+parts[1].Len() != 0 || len(idx[0])+len(idx[1]) != 0 {
			t.Fatal("empty SplitN misbehaved")
		}
	}
}

// TestRestore pins the O(n) construction path the index loader uses: the
// stored permutation reproduces exactly what New computes, and invalid
// permutations are rejected.
func TestRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seqs := makeSeqs(rng, 60, 80)
	want := New(seqs, true)
	got, err := Restore(seqs, want.Order(), true, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != "k" || !got.Sorted() {
		t.Fatalf("Key/Sorted = %q/%v", got.Key(), got.Sorted())
	}
	if got.Residues() != want.Residues() || got.MaxLen() != want.MaxLen() {
		t.Fatalf("stats %v, want %v", got, want)
	}
	wantOrder, gotOrder := want.OrderLengths(), got.OrderLengths()
	for i := range wantOrder {
		if wantOrder[i] != gotOrder[i] {
			t.Fatalf("order lengths diverge at %d", i)
		}
	}
	if _, err := Restore(seqs, want.Order()[:10], true, ""); err == nil {
		t.Fatal("short order accepted")
	}
	bad := want.Order()
	bad[0] = bad[1] // repeated entry: not a permutation
	if _, err := Restore(seqs, bad, true, ""); err == nil {
		t.Fatal("non-permutation accepted")
	}
	bad[0] = len(seqs) // out of range
	if _, err := Restore(seqs, bad, true, ""); err == nil {
		t.Fatal("out-of-range order accepted")
	}
	if empty, err := Restore(nil, nil, true, ""); err != nil || empty.Len() != 0 {
		t.Fatalf("empty Restore: %v, %v", empty, err)
	}
}

// TestKeyPropagation pins that derived databases inherit identity only
// from keyed parents: ad-hoc databases and their children stay keyless.
func TestKeyPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	db := New(makeSeqs(rng, 30, 60), true)
	if db.Key() != "" {
		t.Fatalf("ad-hoc database has key %q", db.Key())
	}
	parts, _ := db.SplitN([]float64{0.5, 0.5})
	if parts[0].Key() != "" || parts[1].Key() != "" {
		t.Fatal("children of a keyless database gained keys")
	}
}
