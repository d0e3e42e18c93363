package alphabet

import (
	"bytes"
	"testing"
)

// The DNA instance pins: 15 IUPAC letters, N directly after the four
// bases as the unknown code, case-insensitive soft-mask handling, and a
// U→T alias for RNA input.

func TestDNAShape(t *testing.T) {
	if got := DNA.Letters(); got != "ACGTNRYSWKMBDHV" {
		t.Fatalf("DNA letters %q", got)
	}
	if DNA.Size() != 15 {
		t.Fatalf("DNA size %d, want 15", DNA.Size())
	}
	if DNA.Unknown() != 4 {
		t.Fatalf("DNA unknown code %d, want 4 (N)", DNA.Unknown())
	}
	if DNA.Decode(DNA.Unknown()) != 'N' {
		t.Fatalf("DNA unknown decodes to %q, want N", DNA.Decode(DNA.Unknown()))
	}
	std := 0
	for c := Code(0); int(c) < DNA.Size(); c++ {
		if DNA.IsStandard(c) {
			std++
		}
	}
	if std != 4 {
		t.Fatalf("DNA has %d standard codes, want 4 (ACGT)", std)
	}
}

func TestDNAEncodeDecodeRoundTrip(t *testing.T) {
	for c := Code(0); int(c) < DNA.Size(); c++ {
		b := DNA.Decode(c)
		got, ok := DNA.Encode(b)
		if !ok || got != c {
			t.Fatalf("Encode(Decode(%d)) = %d,%v", c, got, ok)
		}
	}
}

// TestDNALowerCaseRoundTrip pins the soft-mask contract: lowercase
// nucleotides (repeat-masked regions in genomic FASTA) encode to the same
// codes as their uppercase forms, and decode back to uppercase.
func TestDNALowerCaseRoundTrip(t *testing.T) {
	upper := []byte("ACGTNRYSWKMBDHV")
	lower := bytes.ToLower(upper)
	uc, lc := DNA.EncodeAll(upper), DNA.EncodeAll(lower)
	if !bytes.Equal(BytesView(uc), BytesView(lc)) {
		t.Fatalf("lowercase codes %v differ from uppercase %v", lc, uc)
	}
	if got := DNA.DecodeAll(lc); !bytes.Equal(got, upper) {
		t.Fatalf("soft-masked round trip %q -> %q, want %q", lower, got, upper)
	}
}

// TestDNAUnknownBytes pins that unrecognised input becomes N, and that
// RNA's U (and u) aliases to T rather than N.
func TestDNAUnknownBytes(t *testing.T) {
	for _, b := range []byte{'E', 'F', '1', ' ', '-', 0, 255} {
		c, ok := DNA.Encode(b)
		if ok {
			t.Errorf("Encode(%q) recognised, want unrecognised", b)
		}
		if c != DNA.Unknown() {
			t.Errorf("Encode(%q) = %d, want N", b, c)
		}
	}
	tc, _ := DNA.Encode('T')
	for _, b := range []byte{'U', 'u'} {
		c, ok := DNA.Encode(b)
		if !ok || c != tc {
			t.Errorf("Encode(%q) = %d,%v; want T's code %d", b, c, ok, tc)
		}
	}
}

func TestDNAValidCodes(t *testing.T) {
	cs := DNA.EncodeAll([]byte("ACGTNacgtnRYSWKMBDHVrsyw"))
	if !DNA.ValidCodes(cs) {
		t.Fatal("ValidCodes rejected encoded DNA")
	}
	if DNA.ValidCodes([]Code{0, 15}) {
		t.Fatal("ValidCodes accepted code 15 (out of range for DNA)")
	}
	// Protein codes 15..23 are invalid under DNA but valid under protein:
	// the same arena must validate differently per alphabet.
	if DNA.ValidCodes([]Code{23}) || !Protein.ValidCodes([]Code{23}) {
		t.Fatal("per-alphabet code validation disagrees")
	}
}

func TestByNameByLetters(t *testing.T) {
	for _, tc := range []struct {
		name string
		want *Alphabet
	}{{"protein", Protein}, {"dna", DNA}} {
		got, err := ByName(tc.name)
		if err != nil || got != tc.want {
			t.Fatalf("ByName(%q) = %v, %v", tc.name, got, err)
		}
	}
	for _, name := range []string{"rna", "", "DNA"} {
		if _, err := ByName(name); err == nil {
			t.Fatalf("ByName(%q) succeeded", name)
		}
	}
	for _, a := range []*Alphabet{Protein, DNA} {
		got, err := ByLetters(a.Letters())
		if err != nil || got != a {
			t.Fatalf("ByLetters(%q) = %v, %v", a.Letters(), got, err)
		}
	}
	if _, err := ByLetters("ACGT"); err == nil {
		t.Fatal("ByLetters(ACGT) succeeded")
	}
}
