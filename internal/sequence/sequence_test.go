package sequence

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"heterosw/internal/alphabet"
)

func TestNewEncodes(t *testing.T) {
	s := FromString("q1", "ARNDW")
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	if s.String() != "ARNDW" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestUnknownResiduesBecomeX(t *testing.T) {
	s := FromString("q", "A1R")
	if s.String() != "AXR" {
		t.Fatalf("String = %q, want AXR", s.String())
	}
}

func TestHeader(t *testing.T) {
	s := &Sequence{ID: "P02232", Desc: "Hemoglobin"}
	if got := s.Header(); got != "P02232 Hemoglobin" {
		t.Fatalf("Header = %q", got)
	}
	s.Desc = ""
	if got := s.Header(); got != "P02232" {
		t.Fatalf("Header = %q", got)
	}
}

func TestSlice(t *testing.T) {
	s := FromString("q", "ARNDCQE")
	sub := s.Slice(2, 5)
	if sub.String() != "NDC" {
		t.Fatalf("Slice = %q, want NDC", sub.String())
	}
	if !strings.Contains(sub.ID, "[2:5]") {
		t.Fatalf("Slice ID = %q", sub.ID)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad slice did not panic")
		}
	}()
	s.Slice(5, 2)
}

func TestReadFASTABasic(t *testing.T) {
	in := `>P1 first protein
ARND
CQEG
; a comment line

>P2
wyvx
`
	seqs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("got %d records, want 2", len(seqs))
	}
	if seqs[0].ID != "P1" || seqs[0].Desc != "first protein" {
		t.Fatalf("rec0 header = %q/%q", seqs[0].ID, seqs[0].Desc)
	}
	if seqs[0].String() != "ARNDCQEG" {
		t.Fatalf("rec0 = %q", seqs[0].String())
	}
	if seqs[1].String() != "WYVX" { // lower case accepted
		t.Fatalf("rec1 = %q", seqs[1].String())
	}
}

func TestReadFASTAErrors(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("ARND\n")); err == nil {
		t.Error("data before header accepted")
	}
	if _, err := ReadFASTA(strings.NewReader(">\nAR\n")); err == nil {
		t.Error("empty header accepted")
	}
}

func TestReadFASTAEmpty(t *testing.T) {
	seqs, err := ReadFASTA(strings.NewReader(""))
	if err != nil || len(seqs) != 0 {
		t.Fatalf("empty input: %v, %d records", err, len(seqs))
	}
}

func TestReadFASTANoTrailingNewline(t *testing.T) {
	seqs, err := ReadFASTA(strings.NewReader(">P1\nARND"))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0].String() != "ARND" {
		t.Fatalf("got %v", seqs)
	}
}

func TestWriteFASTAWraps(t *testing.T) {
	s := FromString("P1", strings.Repeat("A", 130))
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, []*Sequence{s}, 60); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 60 + 60 + 10
		t.Fatalf("got %d lines: %q", len(lines), lines)
	}
	if len(lines[1]) != 60 || len(lines[3]) != 10 {
		t.Fatalf("wrap widths wrong: %d, %d", len(lines[1]), len(lines[3]))
	}
}

func TestFASTARoundTripFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/db.fasta"
	want := []*Sequence{
		FromString("A1", "ARNDCQEGHILKMFPSTWYV"),
		{ID: "B2", Desc: "desc here", Residues: alphabet.Protein.EncodeAll([]byte("MKV"))},
	}
	if err := WriteFASTAFile(path, want, 7); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTAFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Desc != want[i].Desc || got[i].String() != want[i].String() {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// Property: writing then reading any batch of random sequences reproduces
// IDs and residues exactly.
func TestFASTARoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n uint8, wrap uint8) bool {
		count := int(n%8) + 1
		seqs := make([]*Sequence, count)
		for i := range seqs {
			L := rng.Intn(200) + 1
			res := make([]alphabet.Code, L)
			for j := range res {
				res[j] = alphabet.Code(rng.Intn(alphabet.Size))
			}
			seqs[i] = &Sequence{ID: "S" + string(rune('A'+i)), Residues: res}
		}
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, seqs, int(wrap%90)); err != nil {
			return false
		}
		back, err := ReadFASTA(&buf)
		if err != nil || len(back) != count {
			return false
		}
		for i := range seqs {
			if back[i].String() != seqs[i].String() || back[i].ID != seqs[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
