package datagen

import (
	"math"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/sequence"
)

func TestLengthsDeterministic(t *testing.T) {
	cfg := SwissProtConfig(0.01)
	a := Lengths(cfg)
	b := Lengths(cfg)
	if len(a) != len(b) {
		t.Fatal("length count differs between runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lengths differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestLengthsStatistics(t *testing.T) {
	cfg := SwissProtConfig(0.05) // ~27k sequences
	ls := Lengths(cfg)
	var sum, maxLen int
	for _, l := range ls {
		if l < 2 || l > SwissProtMaxLen {
			t.Fatalf("length %d out of range", l)
		}
		sum += l
		if l > maxLen {
			maxLen = l
		}
	}
	mean := float64(sum) / float64(len(ls))
	want := float64(SwissProtResidues) / float64(SwissProtSequences) // ~355
	if math.Abs(mean-want) > want*0.1 {
		t.Fatalf("mean length %.1f, want ~%.1f", mean, want)
	}
	if maxLen != SwissProtMaxLen {
		t.Fatalf("max length %d, want planted %d", maxLen, SwissProtMaxLen)
	}
}

func TestSwissProtConfigScale(t *testing.T) {
	full := SwissProtConfig(1)
	if full.Sequences != SwissProtSequences {
		t.Fatalf("full scale = %d sequences", full.Sequences)
	}
	tiny := SwissProtConfig(0)
	if tiny.Sequences < 1 {
		t.Fatal("zero scale produced empty config")
	}
}

func TestGenerateMatchesLengths(t *testing.T) {
	cfg := SwissProtConfig(0.001)
	seqs := Generate(cfg)
	ls := Lengths(cfg)
	if len(seqs) != len(ls) {
		t.Fatalf("Generate %d != Lengths %d", len(seqs), len(ls))
	}
	for i := range seqs {
		if seqs[i].Len() != ls[i] {
			t.Fatalf("seq %d length %d, want %d", i, seqs[i].Len(), ls[i])
		}
	}
}

func TestGenerateResidueDistribution(t *testing.T) {
	cfg := SwissProtConfig(0.002)
	seqs := Generate(cfg)
	counts := make(map[alphabet.Code]int)
	total := 0
	for _, s := range seqs {
		for _, c := range s.Residues {
			counts[c]++
			total++
		}
	}
	// Only standard residues, with Leucine the most common (~9.7%).
	for c := range counts {
		if !alphabet.Protein.IsStandard(c) {
			t.Fatalf("non-standard residue %c generated", alphabet.Protein.Decode(c))
		}
	}
	leu, _ := alphabet.Protein.Encode('L')
	trp, _ := alphabet.Protein.Encode('W')
	fLeu := float64(counts[leu]) / float64(total)
	fTrp := float64(counts[trp]) / float64(total)
	if fLeu < 0.08 || fLeu > 0.12 {
		t.Fatalf("Leu frequency %.4f, want ~0.097", fLeu)
	}
	if fTrp < 0.005 || fTrp > 0.02 {
		t.Fatalf("Trp frequency %.4f, want ~0.011", fTrp)
	}
}

func TestPaperQueries(t *testing.T) {
	specs := PaperQueries()
	if len(specs) != 20 {
		t.Fatalf("%d queries, want 20", len(specs))
	}
	if specs[0].Length != 144 || specs[19].Length != 5478 {
		t.Fatalf("length range %d..%d, want 144..5478 (paper Section V.B)",
			specs[0].Length, specs[19].Length)
	}
	for i := 1; i < len(specs); i++ {
		if specs[i].Length <= specs[i-1].Length {
			t.Fatal("queries not in ascending length order")
		}
	}
}

func TestGenerateQueries(t *testing.T) {
	qs := GenerateQueries(7)
	specs := PaperQueries()
	for i, q := range qs {
		if q.Len() != specs[i].Length {
			t.Fatalf("query %s length %d, want %d", q.ID, q.Len(), specs[i].Length)
		}
		if q.ID != specs[i].Accession {
			t.Fatalf("query %d ID %s", i, q.ID)
		}
	}
	again := GenerateQueries(7)
	if qs[3].String() != again[3].String() {
		t.Fatal("queries not deterministic")
	}
	other := GenerateQueries(8)
	if qs[3].String() == other[3].String() {
		t.Fatal("different seeds gave identical queries")
	}
}

func TestPlantQueries(t *testing.T) {
	cfg := SwissProtConfig(0.001)
	db := Generate(cfg)
	qs := GenerateQueries(7)
	PlantQueries(db, qs)
	found := 0
	for _, s := range db {
		for _, q := range qs {
			if s == q {
				found++
			}
		}
	}
	if found != len(qs) {
		t.Fatalf("%d queries planted, want %d", found, len(qs))
	}
	// Planting into an empty database must not panic.
	PlantQueries(nil, qs)
	PlantQueries([]*sequence.Sequence{}, qs)
}
