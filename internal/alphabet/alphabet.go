// Package alphabet defines the residue alphabets used throughout the
// Smith-Waterman engine and the compact residue encoding shared by
// sequences, substitution matrices and alignment kernels.
//
// Residues are stored as small integer codes (type Code) so that profile
// tables can be indexed directly without byte-to-index translation in inner
// loops. Two alphabets are provided: Protein, the 24-letter NCBI protein
// alphabet used by BLOSUM and PAM matrices (the 20 standard amino acids,
// the ambiguity codes B, Z and X, and the stop '*'), and DNA, the 16-letter
// IUPAC nucleotide alphabet (A, C, G, T, the unknown N, and the remaining
// ambiguity codes).
//
// The package-level constants describe the protein alphabet; encoding and
// decoding go through an *Alphabet's methods, so every call site names the
// alphabet it means.
package alphabet

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Code is the compact integer encoding of a residue. Valid codes are in
// [0, Alphabet.Size()). The zero value encodes 'A' in both alphabets.
type Code uint8

// Alphabet is a residue alphabet: an ordered letter set, the byte-to-code
// table derived from it, and the unknown (catch-all) code. Values are
// immutable after construction; the two canonical instances are Protein and
// DNA.
type Alphabet struct {
	name     string
	letters  string
	unknown  Code
	standard int // count of unambiguous residues (a prefix of letters)
	codeOf   [256]int8
}

// newAlphabet builds an alphabet over letters (code order). Uppercase
// letters also accept their lowercase forms (soft-masked residues in
// genomic FASTA). aliases maps extra input bytes to existing codes.
func newAlphabet(name, letters string, unknown Code, standard int, aliases map[byte]byte) *Alphabet {
	a := &Alphabet{name: name, letters: letters, unknown: unknown, standard: standard}
	for i := range a.codeOf {
		a.codeOf[i] = -1
	}
	for c := 0; c < len(letters); c++ {
		upper := letters[c]
		a.codeOf[upper] = int8(c)
		if upper >= 'A' && upper <= 'Z' {
			a.codeOf[upper+'a'-'A'] = int8(c) // accept lower case
		}
	}
	for b, to := range aliases {
		c := a.codeOf[to]
		a.codeOf[b] = c
		if b >= 'A' && b <= 'Z' {
			a.codeOf[b+'a'-'A'] = c
		}
	}
	return a
}

// Protein is the 24-letter NCBI protein alphabet. The ordering matches
// NCBI's NCBIstdaa-derived ordering used by textual BLOSUM matrices, which
// keeps matrix parsing straightforward. U (selenocysteine), O (pyrrolysine)
// and J are accepted as X: they occur in Swiss-Prot but have no BLOSUM
// column.
var Protein = newAlphabet("protein", Letters, Unknown, 20,
	map[byte]byte{'U': 'X', 'O': 'X', 'J': 'X'})

// DNA is the IUPAC nucleotide alphabet: the four standard bases, the
// unknown base N, then the remaining ambiguity codes. N is placed directly
// after the bases so ambiguity handling (anything with code >= 4) is a
// single compare. U (uracil) is accepted as T so RNA input encodes
// losslessly; lowercase (soft-masked) residues encode case-insensitively
// like protein letters.
var DNA = newAlphabet("dna", "ACGTNRYSWKMBDHV", 4, 4,
	map[byte]byte{'U': 'T'})

// ByName returns the named alphabet: "protein" or "dna".
func ByName(name string) (*Alphabet, error) {
	switch name {
	case "", "protein":
		return Protein, nil
	case "dna", "DNA":
		return DNA, nil
	}
	return nil, fmt.Errorf("alphabet: unknown alphabet %q (have protein, dna)", name)
}

// ByLetters resolves an alphabet from its exact letter string — the form
// persisted in .swdb index headers.
func ByLetters(letters string) (*Alphabet, error) {
	switch letters {
	case Protein.letters:
		return Protein, nil
	case DNA.letters:
		return DNA, nil
	}
	return nil, fmt.Errorf("alphabet: unknown alphabet letters %q", letters)
}

// Name returns the alphabet's name: "protein" or "dna".
func (a *Alphabet) Name() string { return a.name }

// Letters lists the alphabet in code order: Letters()[c] is the byte for
// Code c.
func (a *Alphabet) Letters() string { return a.letters }

// Size returns the number of distinct residue codes.
func (a *Alphabet) Size() int { return len(a.letters) }

// Unknown returns the catch-all code unrecognised input bytes decode to:
// X for protein, N for DNA.
func (a *Alphabet) Unknown() Code { return a.unknown }

// IsStandard reports whether c is an unambiguous residue: one of the 20
// standard amino acids, or one of the four DNA bases.
func (a *Alphabet) IsStandard(c Code) bool { return int(c) < a.standard }

// Encode returns the residue code for an ASCII letter and whether the
// letter is a recognised residue. Unrecognised letters return
// (Unknown(), false).
func (a *Alphabet) Encode(b byte) (Code, bool) {
	if c := a.codeOf[b]; c >= 0 {
		return Code(c), true
	}
	return a.unknown, false
}

// MustEncode returns the residue code for b, mapping any unrecognised byte
// to the unknown code.
func (a *Alphabet) MustEncode(b byte) Code {
	c, _ := a.Encode(b)
	return c
}

// Decode returns the ASCII letter for a residue code. It panics if the
// code is out of range, since codes are produced only by this package.
func (a *Alphabet) Decode(c Code) byte {
	if int(c) >= len(a.letters) {
		panic(fmt.Sprintf("alphabet: %s code %d out of range", a.name, c))
	}
	return a.letters[c]
}

// EncodeAll encodes an ASCII residue string into a fresh code slice.
// Unrecognised bytes become the unknown code.
func (a *Alphabet) EncodeAll(s []byte) []Code {
	out := make([]Code, len(s))
	for i, b := range s {
		out[i] = a.MustEncode(b)
	}
	return out
}

// DecodeAll renders a code slice as an ASCII residue string.
func (a *Alphabet) DecodeAll(cs []Code) []byte {
	out := make([]byte, len(cs))
	for i, c := range cs {
		out[i] = a.Decode(c)
	}
	return out
}

// Valid reports whether every byte of s is a recognised residue letter.
func (a *Alphabet) Valid(s []byte) bool {
	for _, b := range s {
		if a.codeOf[b] < 0 {
			return false
		}
	}
	return true
}

// ValidCodes reports whether every element of cs is a valid residue code
// under this alphabet — the integrity check applied to residue arenas
// loaded from disk. The scan runs eight codes per word (SWAR), so
// validating a multi-megabyte arena costs a fraction of a millisecond of
// the load budget.
func (a *Alphabet) ValidCodes(cs []Code) bool {
	return validCodes(cs, len(a.letters))
}

func validCodes(cs []Code, size int) bool {
	const hiBits = 0x8080808080808080
	// addend lifts a byte's high bit exactly when the byte >= size:
	// 0x80 - size replicated per byte. Carry-free whenever no input byte
	// has its high bit set, which the hiBits term checks first.
	addend := uint64(0x80-size) * 0x0101010101010101
	i, n := 0, len(cs)
	if n >= 8 {
		b := unsafe.Slice((*byte)(unsafe.Pointer(&cs[0])), n)
		for ; i+8 <= n; i += 8 {
			w := binary.LittleEndian.Uint64(b[i:])
			if (w|(w+addend))&hiBits != 0 {
				return false
			}
		}
	}
	for ; i < n; i++ {
		if int(cs[i]) >= size {
			return false
		}
	}
	return true
}

// Protein constants: the shape of the Protein instance, for tables sized
// at compile time.

// Size is the number of distinct residue codes in the protein alphabet.
const Size = 24

// Letters lists the protein alphabet in code order.
const Letters = "ARNDCQEGHILKMFPSTWYVBZX*"

// Unknown is the protein code for the ambiguity residue 'X'. Invalid input
// bytes decode to Unknown rather than failing, mirroring common search-tool
// behaviour for stray characters in FASTA data.
const Unknown Code = 22

// CodesView reinterprets a byte slice as a Code slice without copying.
// Code is a uint8, so the two layouts are identical; the view aliases b,
// which must hold already-encoded residues and must not be mutated
// afterwards. This is the zero-copy path the on-disk database index uses
// to slice sequences out of one contiguous residue arena.
func CodesView(b []byte) []Code {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*Code)(unsafe.Pointer(&b[0])), len(b))
}

// BytesView is the inverse of CodesView: a zero-copy byte view over a
// code slice (the index writer's arena serialisation). The view aliases
// cs and must not be mutated.
func BytesView(cs []Code) []byte {
	if len(cs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&cs[0])), len(cs))
}
