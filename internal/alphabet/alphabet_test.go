package alphabet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestLettersLength(t *testing.T) {
	if len(Letters) != Size {
		t.Fatalf("Letters has %d letters, want %d", len(Letters), Size)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for c := Code(0); c < Size; c++ {
		b := Protein.Decode(c)
		got, ok := Protein.Encode(b)
		if !ok {
			t.Fatalf("Encode(%q) not recognised", b)
		}
		if got != c {
			t.Fatalf("Encode(Decode(%d)) = %d", c, got)
		}
	}
}

func TestEncodeLowerCase(t *testing.T) {
	for c := Code(0); c < 20; c++ {
		upper := Protein.Decode(c)
		lower := upper + 'a' - 'A'
		got, ok := Protein.Encode(lower)
		if !ok || got != c {
			t.Fatalf("Encode(%q) = %d,%v; want %d,true", lower, got, ok, c)
		}
	}
}

func TestEncodeUnknown(t *testing.T) {
	for _, b := range []byte{'1', ' ', '-', '\n', 0, 255} {
		c, ok := Protein.Encode(b)
		if ok {
			t.Errorf("Encode(%q) recognised, want unrecognised", b)
		}
		if c != Unknown {
			t.Errorf("Encode(%q) = %d, want Unknown", b, c)
		}
	}
}

func TestNonStandardResiduesMapToX(t *testing.T) {
	for _, b := range []byte{'U', 'u', 'O', 'o', 'J'} {
		c, _ := Protein.Encode(b)
		if c != Unknown {
			t.Errorf("Encode(%q) = %d, want Unknown (X)", b, c)
		}
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	in := []byte("MKVLAARNDW")
	codes := Protein.EncodeAll(in)
	out := Protein.DecodeAll(codes)
	if !bytes.Equal(in, out) {
		t.Fatalf("round trip %q -> %q", in, out)
	}
}

func TestValid(t *testing.T) {
	if !Protein.Valid([]byte("ACDEFGHIKLMNPQRSTVWYBZX*")) {
		t.Error("standard residues reported invalid")
	}
	if Protein.Valid([]byte("ACD EFG")) {
		t.Error("space reported valid")
	}
	if !Protein.Valid(nil) {
		t.Error("empty sequence should be valid")
	}
}

func TestIsStandard(t *testing.T) {
	std := 0
	for c := Code(0); c < Size; c++ {
		if Protein.IsStandard(c) {
			std++
		}
	}
	if std != 20 {
		t.Fatalf("IsStandard counts %d codes, want 20", std)
	}
	for _, b := range []byte{'B', 'Z', 'X', '*'} {
		c, _ := Protein.Encode(b)
		if Protein.IsStandard(c) {
			t.Errorf("IsStandard(%q) = true", b)
		}
	}
}

func TestDecodePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Decode(Size) did not panic")
		}
	}()
	Protein.Decode(Size)
}

// Property: encoding any byte slice yields codes < Size, and decoding those
// codes yields bytes that re-encode to the same codes (idempotence after the
// first pass).
func TestEncodeIdempotentProperty(t *testing.T) {
	f := func(data []byte) bool {
		codes := Protein.EncodeAll(data)
		for _, c := range codes {
			if int(c) >= Size {
				return false
			}
		}
		letters := Protein.DecodeAll(codes)
		again := Protein.EncodeAll(letters)
		for i := range codes {
			if codes[i] != again[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodesView(t *testing.T) {
	if CodesView(nil) != nil || CodesView([]byte{}) != nil {
		t.Fatal("empty views must be nil")
	}
	b := []byte{0, 5, 23, 1}
	v := CodesView(b)
	if len(v) != len(b) {
		t.Fatalf("len %d, want %d", len(v), len(b))
	}
	for i := range b {
		if v[i] != Code(b[i]) {
			t.Fatalf("v[%d] = %d, want %d", i, v[i], b[i])
		}
	}
	b[2] = 7 // the view aliases the backing bytes
	if v[2] != 7 {
		t.Fatal("view did not alias the byte slice")
	}
	if !Protein.ValidCodes(v) {
		t.Fatal("ValidCodes rejected in-range codes")
	}
	if Protein.ValidCodes([]Code{0, Code(Size)}) {
		t.Fatal("ValidCodes accepted an out-of-range code")
	}
}
