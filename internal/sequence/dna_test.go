package sequence

import (
	"bytes"
	"strings"
	"testing"

	"heterosw/internal/alphabet"
)

// TestDNAFASTASoftMaskRoundTrip pins soft-masked genomic FASTA handling:
// lowercase (repeat-masked) nucleotides parse case-insensitively to the
// same codes as uppercase, unrecognised letters become N, and re-rendering
// yields canonical uppercase residues.
func TestDNAFASTASoftMaskRoundTrip(t *testing.T) {
	in := ">chr1 masked fragment\nACGTacgtNnRYryEQZ\nuU\n"
	seqs, err := ReadFASTA(strings.NewReader(in), alphabet.DNA)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 {
		t.Fatalf("%d sequences, want 1", len(seqs))
	}
	s := seqs[0]
	if s.Alphabet() != alphabet.DNA {
		t.Fatalf("parsed alphabet %s, want dna", s.Alphabet().Name())
	}
	// E, Q and Z are not IUPAC nucleotides -> N; u/U is RNA uracil -> T.
	if got, want := s.String(), "ACGTACGTNNRYRYNNNTT"; got != want {
		t.Fatalf("canonical residues %q, want %q", got, want)
	}
	upper := FromStringAlpha("chr1", strings.ToUpper(s.String()), alphabet.DNA)
	if !bytes.Equal(alphabet.BytesView(upper.Residues), alphabet.BytesView(s.Residues)) {
		t.Fatal("soft-masked codes differ from uppercase codes")
	}

	// Writing and re-reading the parsed sequence is a fixed point.
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, seqs, 60); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(bytes.NewReader(buf.Bytes()), alphabet.DNA)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].String() != s.String() || back[0].ID != s.ID {
		t.Fatalf("FASTA round trip changed the record: %+v", back)
	}
}

// TestDNAVsProteinParse pins that the same bytes encode differently under
// the two alphabets — the generalisation the alphabet refactor exists for.
func TestDNAVsProteinParse(t *testing.T) {
	d := FromStringAlpha("x", "ACGT", alphabet.DNA)
	p := FromStringAlpha("x", "ACGT", alphabet.Protein)
	if bytes.Equal(alphabet.BytesView(d.Residues), alphabet.BytesView(p.Residues)) {
		t.Fatal("DNA and protein encodings of ACGT coincide")
	}
	if d.String() != "ACGT" || p.String() != "ACGT" {
		t.Fatalf("decode mismatch: dna %q protein %q", d.String(), p.String())
	}
}
