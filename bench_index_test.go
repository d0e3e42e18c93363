package heterosw

import (
	"os"
	"path/filepath"
	"testing"

	"heterosw/internal/datagen"
	"heterosw/internal/sequence"
)

// The startup-cost benchmarks behind the .swdb format: loading the same
// >=10k-sequence corpus from FASTA (parse + encode + length sort) versus
// opening its prebuilt index (mmap + zero-copy slicing). The ratio is the
// amortisation a long-lived server banks on every restart.

// benchCorpusScale yields 10,831 sequences (~3.9M residues), comfortably
// past the 10k-sequence acceptance floor.
const benchCorpusScale = 0.02

// benchCorpusPaths writes the benchmark corpus into the benchmark's own
// temp dir (cleaned up automatically). Rebuilding it per benchmark costs
// well under a second and keeps the package free of leaked temp state.
func benchCorpusPaths(tb testing.TB) (fasta, swdb string, seqs int) {
	tb.Helper()
	dir := tb.TempDir()
	raw := datagen.Generate(datagen.SwissProtConfig(benchCorpusScale))
	fasta = filepath.Join(dir, "bench.fasta")
	if err := sequence.WriteFASTAFile(fasta, raw, 60); err != nil {
		tb.Fatal(err)
	}
	db, err := NewDatabase(wrapSeqs(raw))
	if err != nil {
		tb.Fatal(err)
	}
	swdb = filepath.Join(dir, "bench.swdb")
	if err := WriteIndexFile(swdb, db); err != nil {
		tb.Fatal(err)
	}
	return fasta, swdb, len(raw)
}

// benchLoad measures one load path end to end (file to search-ready,
// sorted database) and reports sequences/second readiness throughput.
func benchLoad(b *testing.B, path string, wantSeqs int) {
	var db *Database
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		db, err = LoadDatabaseFile(path, "protein")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if db.Len() != wantSeqs {
		b.Fatalf("loaded %d sequences, want %d", db.Len(), wantSeqs)
	}
	if !db.db.Sorted() {
		b.Fatal("loaded database is not length-sorted")
	}
	perOp := b.Elapsed().Seconds() / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(wantSeqs)/perOp, "seqs/s")
	}
}

// BenchmarkFastaLoad is the legacy startup path: FASTA parse, residue
// encoding and the length sort, paid on every boot.
func BenchmarkFastaLoad(b *testing.B) {
	fasta, _, seqs := benchCorpusPaths(b)
	benchLoad(b, fasta, seqs)
}

// BenchmarkIndexOpen is the .swdb startup path: mmap, checksum
// verification, and zero-copy slice restoration of the presorted order.
// The acceptance evidence for the format is >=10x BenchmarkFastaLoad,
// recorded in the committed benchmark artifact (10.4x at -benchtime=20x;
// ~13x steady state).
func BenchmarkIndexOpen(b *testing.B) {
	_, swdb, seqs := benchCorpusPaths(b)
	benchLoad(b, swdb, seqs)
}

// TestIndexOpenBeatsFastaLoad pins the startup-cost win functionally so a
// regression fails in `go test`, not only in benchmark review. The
// measured ratio is 10-13x on an idle machine but drifts down toward 8x
// under host load (both load paths are allocation- and page-cache-bound,
// and they wobble independently); the floor asserts 5x so an
// order-of-magnitude regression is still caught locally while the assert
// sits well clear of machine noise. On shared CI runners it skips —
// wall-clock ratios there are exactly what the repo's benchjson design
// treats as info-only (the bench-smoke job still records both load
// benchmarks in the artifact every run).
func TestIndexOpenBeatsFastaLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	if os.Getenv("CI") != "" {
		t.Skip("wall-clock ratio on a shared runner; see the bench-smoke artifact")
	}
	res := testing.Benchmark(BenchmarkFastaLoad)
	fastaPerOp := res.T.Seconds() / float64(res.N)
	res = testing.Benchmark(BenchmarkIndexOpen)
	indexPerOp := res.T.Seconds() / float64(res.N)
	ratio := fastaPerOp / indexPerOp
	t.Logf("FASTA %.1fms vs swdb %.1fms per load: %.1fx", fastaPerOp*1e3, indexPerOp*1e3, ratio)
	if ratio < 5 {
		t.Fatalf("index open only %.1fx faster than FASTA load, want the measured 10-13x (floor 5x)", ratio)
	}
}
