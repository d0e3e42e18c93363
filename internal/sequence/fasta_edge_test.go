package sequence

import (
	"strings"
	"testing"

	"heterosw/internal/alphabet"
)

// Windows-produced FASTA uses CRLF line endings; the parser must not leak
// carriage returns into IDs, descriptions or residues.
func TestReadFASTACRLF(t *testing.T) {
	in := ">P1 first protein\r\nARND\r\nCQEG\r\n>P2\r\nMKV\r\n"
	seqs, err := ReadFASTA(strings.NewReader(in), alphabet.Protein)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("got %d records, want 2", len(seqs))
	}
	if seqs[0].ID != "P1" || seqs[0].Desc != "first protein" {
		t.Fatalf("rec0 header %q/%q", seqs[0].ID, seqs[0].Desc)
	}
	if seqs[0].String() != "ARNDCQEG" {
		t.Fatalf("rec0 residues %q", seqs[0].String())
	}
	if seqs[1].ID != "P2" || seqs[1].String() != "MKV" {
		t.Fatalf("rec1 %q %q", seqs[1].ID, seqs[1].String())
	}
}

// A CRLF file with no trailing newline ends in a bare \r-less fragment;
// both quirks together must still round the last record off cleanly.
func TestReadFASTACRLFNoTrailingNewline(t *testing.T) {
	seqs, err := ReadFASTA(strings.NewReader(">P1\r\nAR\r\nND"), alphabet.Protein)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0].String() != "ARND" {
		t.Fatalf("got %+v", seqs)
	}
}

// '*' is the stop/terminator letter of the NCBI alphabet and appears in
// ORF translations; it must parse as itself, not as unknown.
func TestReadFASTAStopCodons(t *testing.T) {
	seqs, err := ReadFASTA(strings.NewReader(">orf1\nMKV*\n>orf2\nAR*ND*\n"), alphabet.Protein)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("got %d records", len(seqs))
	}
	if got := seqs[0].String(); got != "MKV*" {
		t.Fatalf("rec0 %q, want MKV*", got)
	}
	if got := seqs[1].String(); got != "AR*ND*" {
		t.Fatalf("rec1 %q, want AR*ND*", got)
	}
}

// Headers with no sequence lines (empty bodies) occur in truncated dumps;
// each must yield a zero-length record in order, wherever it sits.
func TestReadFASTAEmptyBodies(t *testing.T) {
	in := ">empty1\n>full\nMKV\n>empty2\n\n>last\n"
	seqs, err := ReadFASTA(strings.NewReader(in), alphabet.Protein)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 4 {
		t.Fatalf("got %d records, want 4", len(seqs))
	}
	wantIDs := []string{"empty1", "full", "empty2", "last"}
	wantLens := []int{0, 3, 0, 0}
	for i := range seqs {
		if seqs[i].ID != wantIDs[i] {
			t.Fatalf("record %d is %q, want %q", i, seqs[i].ID, wantIDs[i])
		}
		if seqs[i].Len() != wantLens[i] {
			t.Fatalf("record %q has %d residues, want %d", seqs[i].ID, seqs[i].Len(), wantLens[i])
		}
	}
}

// A header as the very last byte of the stream (no newline at all) is the
// extreme of both edge cases at once.
func TestReadFASTAHeaderAtEOF(t *testing.T) {
	seqs, err := ReadFASTA(strings.NewReader(">only"), alphabet.Protein)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0].ID != "only" || seqs[0].Len() != 0 {
		t.Fatalf("got %+v", seqs)
	}
}

// Empty-body records must survive a write/read round trip.
func TestFASTARoundTripEmptyBody(t *testing.T) {
	var sb strings.Builder
	in := []*Sequence{
		{ID: "E1"},
		FromString("F1", "MKWVLA"),
		{ID: "E2", Desc: "truncated entry"},
	}
	if err := WriteFASTA(&sb, in, 60); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(strings.NewReader(sb.String()), alphabet.Protein)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("round trip lost records: %d", len(back))
	}
	for i := range in {
		if back[i].ID != in[i].ID || back[i].Desc != in[i].Desc || back[i].String() != in[i].String() {
			t.Fatalf("record %d differs: %+v vs %+v", i, back[i], in[i])
		}
	}
}
