package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
)

// randSeqs builds a deterministic random sequence set with varied lengths,
// descriptions and duplicate IDs.
func randSeqs(seed int64, n, maxLen int) []*sequence.Sequence {
	rng := rand.New(rand.NewSource(seed))
	const letters = "ARNDCQEGHILKMFPSTWYVBZX*"
	seqs := make([]*sequence.Sequence, n)
	for i := range seqs {
		l := rng.Intn(maxLen) + 1
		buf := make([]byte, l)
		for j := range buf {
			buf[j] = letters[rng.Intn(len(letters))]
		}
		s := sequence.New(fmt.Sprintf("seq%d", i%max(1, n-2)), buf) // a couple of duplicate IDs
		if i%3 == 0 {
			s.Desc = fmt.Sprintf("synthetic record %d", i)
		}
		seqs[i] = s
	}
	return seqs
}

// checkEqual asserts the restored database matches the original in every
// caller-visible respect: residues, headers, lengths, processing order and
// partition geometry.
func checkEqual(t *testing.T, want, got *seqdb.Database) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	if got.Residues() != want.Residues() || got.MaxLen() != want.MaxLen() || got.Sorted() != want.Sorted() {
		t.Fatalf("summary %v, want %v", got, want)
	}
	for i := 0; i < want.Len(); i++ {
		ws, gs := want.Seq(i), got.Seq(i)
		if ws.ID != gs.ID || ws.Desc != gs.Desc {
			t.Fatalf("seq %d header = %q/%q, want %q/%q", i, gs.ID, gs.Desc, ws.ID, ws.Desc)
		}
		if !reflect.DeepEqual(ws.Residues, gs.Residues) {
			t.Fatalf("seq %d residues differ", i)
		}
	}
	if !reflect.DeepEqual(want.Order(), got.Order()) {
		t.Fatalf("processing order differs")
	}
	for _, lanes := range []int{1, 16, 32, 64} {
		wg, wl := want.Partition(lanes, 3072)
		gg, gl := got.Partition(lanes, 3072)
		if !reflect.DeepEqual(wl, gl) {
			t.Fatalf("lanes %d: long routing differs", lanes)
		}
		if !reflect.DeepEqual(wg, gg) {
			t.Fatalf("lanes %d: lane groups differ", lanes)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seqs   []*sequence.Sequence
		sorted bool
	}{
		{"sorted", randSeqs(1, 200, 600), true},
		{"unsorted", randSeqs(2, 64, 200), false},
		{"with-long", append(randSeqs(3, 40, 100), sequence.FromString("long", string(bytes.Repeat([]byte("ARND"), 1000)))), true},
		{"single", randSeqs(4, 1, 50), true},
		{"empty", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := seqdb.New(tc.seqs, tc.sorted)
			var buf bytes.Buffer
			sum, err := Write(&buf, db)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Read(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if ix.Checksum != sum {
				t.Fatalf("checksum %016x, Write reported %016x", ix.Checksum, sum)
			}
			if ix.Sorted != tc.sorted {
				t.Fatalf("Sorted = %v, want %v", ix.Sorted, tc.sorted)
			}
			if got, want := ix.Database().Key(), ix.Key(); got != want || got == "" {
				t.Fatalf("Key = %q, want non-empty %q", got, want)
			}
			checkEqual(t, db, ix.Database())
		})
	}
}

// TestWriteDeterministic pins that the image is a pure function of the
// database, so checksums are stable identities.
func TestWriteDeterministic(t *testing.T) {
	db := seqdb.New(randSeqs(7, 100, 300), true)
	var a, b bytes.Buffer
	sa, err := Write(&a, db)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Write(&b, db)
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of one database differ")
	}
}

// TestOpenShapeTableFile opens golden_db_shapes.swdb, which an earlier
// writer built from golden_db.fasta with shape tables in the reserved
// section: the reader skips them and restores the same sequences, order and
// key. A fresh write of the same database leaves the section empty.
func TestOpenShapeTableFile(t *testing.T) {
	ix, err := Open(filepath.Join("..", "..", "..", "testdata", "golden_db_shapes.swdb"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Key(), "swdb:03b4f546-48-5183"; got != want || ix.Database().Key() != want {
		t.Fatalf("key %q (database %q), want %q", got, ix.Database().Key(), want)
	}
	seqs, err := sequence.ReadFASTAFile(filepath.Join("..", "..", "..", "testdata", "golden_db.fasta"))
	if err != nil {
		t.Fatal(err)
	}
	db := seqdb.New(seqs, true)
	checkEqual(t, db, ix.Database())

	var buf bytes.Buffer
	if _, err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	if s, n := binary.LittleEndian.Uint64(hdr[40:48]), binary.LittleEndian.Uint32(hdr[52:56]); s != 0 || n != 0 {
		t.Fatalf("reserved section written with %d bytes, count %d", s, n)
	}
}

func TestOpenFile(t *testing.T) {
	db := seqdb.New(randSeqs(6, 50, 200), true)
	path := filepath.Join(t.TempDir(), "db.swdb")
	sum, err := WriteFile(path, db)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Checksum != sum {
		t.Fatalf("checksum %016x, want %016x", ix.Checksum, sum)
	}
	checkEqual(t, db, ix.Database())
}

// TestLoadDatabaseSniffs pins the dual-format loader: the same sequences
// come back from a FASTA file and from an index built over it.
func TestLoadDatabaseSniffs(t *testing.T) {
	seqs := randSeqs(8, 80, 300)
	dir := t.TempDir()
	fasta := filepath.Join(dir, "db.fasta")
	if err := sequence.WriteFASTAFile(fasta, seqs, 60); err != nil {
		t.Fatal(err)
	}
	fromFasta, kind, err := LoadDatabase(fasta, alphabet.Protein)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "fasta" {
		t.Fatalf("kind = %q, want fasta", kind)
	}
	if fromFasta.Key() != "" {
		t.Fatalf("FASTA-loaded database has identity key %q", fromFasta.Key())
	}

	swdb := filepath.Join(dir, "db.swdb")
	if _, err := WriteFile(swdb, fromFasta); err != nil {
		t.Fatal(err)
	}
	fromIndex, kind, err := LoadDatabase(swdb, alphabet.Protein)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "swdb" {
		t.Fatalf("kind = %q, want swdb", kind)
	}
	if fromIndex.Key() == "" {
		t.Fatal("index-loaded database has no identity key")
	}
	checkEqual(t, fromFasta, fromIndex)

	if _, _, err := LoadDatabase(filepath.Join(dir, "missing"), alphabet.Protein); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestSplitSharesKeys pins the key propagation that lets shards of one
// index share engines: equal splits of two loads of the same index carry
// equal keys, different shards different keys.
func TestSplitSharesKeys(t *testing.T) {
	db := seqdb.New(randSeqs(9, 60, 200), true)
	var buf bytes.Buffer
	if _, err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	load := func() *seqdb.Database {
		ix, err := Read(append([]byte(nil), buf.Bytes()...))
		if err != nil {
			t.Fatal(err)
		}
		return ix.Database()
	}
	a, b := load(), load()
	if a.Key() == "" || a.Key() != b.Key() {
		t.Fatalf("keys %q vs %q", a.Key(), b.Key())
	}
	fracs := []float64{0.3, 0.7}
	as, _ := a.SplitN(fracs)
	bs, _ := b.SplitN(fracs)
	for i := range as {
		if as[i].Key() == "" || as[i].Key() != bs[i].Key() {
			t.Fatalf("shard %d keys %q vs %q", i, as[i].Key(), bs[i].Key())
		}
	}
	if as[0].Key() == as[1].Key() {
		t.Fatal("distinct shards share a key")
	}
}

func TestSniff(t *testing.T) {
	if Sniff([]byte(">fasta")) || Sniff(nil) || Sniff([]byte("SW")) {
		t.Fatal("Sniff accepted non-index bytes")
	}
	if !Sniff([]byte("SWDBxxxx")) {
		t.Fatal("Sniff rejected the magic")
	}
}

func TestWriteNil(t *testing.T) {
	if _, err := Write(os.Stderr, nil); err == nil {
		t.Fatal("Write(nil database) did not error")
	}
}

// TestWriteFileInPlaceRebuild pins the atomic replace: rebuilding an
// index over its own path while the source database still aliases the
// mapped file must neither fault nor corrupt the output (the rename
// leaves the old inode alive for the mapping).
func TestWriteFileInPlaceRebuild(t *testing.T) {
	want := seqdb.New(randSeqs(11, 40, 150), true)
	path := filepath.Join(t.TempDir(), "db.swdb")
	sum, err := WriteFile(path, want)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(path) // mmaps path on unix
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := WriteFile(path, ix.Database()) // residues read from the mapping itself
	if err != nil {
		t.Fatal(err)
	}
	if sum2 != sum {
		t.Fatalf("in-place rebuild changed the checksum: %016x -> %016x", sum, sum2)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	checkEqual(t, want, reopened.Database())
	checkEqual(t, want, ix.Database()) // the old mapping is still fully readable
}

// TestWriteFileBareFilename pins that a directory-less target path keeps
// the atomic temp file beside the target (os.CreateTemp("") would use the
// system temp dir and make the rename cross-filesystem).
func TestWriteFileBareFilename(t *testing.T) {
	t.Chdir(t.TempDir())
	db := seqdb.New(randSeqs(12, 10, 50), true)
	if _, err := WriteFile("bare.swdb", db); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("bare.swdb"); err != nil {
		t.Fatal(err)
	}
}
