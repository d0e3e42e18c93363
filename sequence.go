package heterosw

import (
	"fmt"
	"io"

	"heterosw/internal/alphabet"
	"heterosw/internal/datagen"
	"heterosw/internal/sequence"
)

// Sequence is an immutable biological sequence, protein or DNA. The zero
// value is an empty protein sequence; construct real ones with
// NewSequence, NewDNASequence, ReadFASTA (which names the alphabet) or the
// synthetic generators.
type Sequence struct {
	impl *sequence.Sequence
}

// NewSequence builds a protein sequence from an identifier and ASCII
// residues. Letters outside the 24-letter protein alphabet are stored as
// the unknown residue X.
func NewSequence(id, residues string) Sequence {
	return Sequence{impl: sequence.FromString(id, residues)}
}

// NewDNASequence builds a nucleotide sequence over the 15-letter IUPAC DNA
// alphabet. Lowercase (soft-masked) bases encode case-insensitively, U is
// accepted as T, and any other unrecognised letter is stored as the
// unknown base N.
func NewDNASequence(id, residues string) Sequence {
	return Sequence{impl: sequence.FromStringAlpha(id, residues, alphabet.DNA)}
}

// Alphabet returns the name of the alphabet the sequence is encoded
// under: "protein" or "dna".
func (s Sequence) Alphabet() string {
	if s.impl == nil {
		return alphabet.Protein.Name()
	}
	return s.impl.Alphabet().Name()
}

// ID returns the sequence identifier.
func (s Sequence) ID() string {
	if s.impl == nil {
		return ""
	}
	return s.impl.ID
}

// Description returns the FASTA description, possibly empty.
func (s Sequence) Description() string {
	if s.impl == nil {
		return ""
	}
	return s.impl.Desc
}

// Len returns the residue count.
func (s Sequence) Len() int {
	if s.impl == nil {
		return 0
	}
	return s.impl.Len()
}

// String renders the residues as ASCII letters.
func (s Sequence) String() string {
	if s.impl == nil {
		return ""
	}
	return s.impl.String()
}

// Slice returns the subsequence [from, to) sharing underlying storage.
func (s Sequence) Slice(from, to int) Sequence {
	return Sequence{impl: s.impl.Slice(from, to)}
}

func wrapSeqs(in []*sequence.Sequence) []Sequence {
	out := make([]Sequence, len(in))
	for i, s := range in {
		out[i] = Sequence{impl: s}
	}
	return out
}

func unwrapSeqs(in []Sequence) ([]*sequence.Sequence, error) {
	out := make([]*sequence.Sequence, len(in))
	for i, s := range in {
		if s.impl == nil {
			return nil, fmt.Errorf("heterosw: sequence %d is the zero value", i)
		}
		out[i] = s.impl
	}
	return out, nil
}

// ReadFASTA parses all records from a FASTA stream under the named
// alphabet, "protein" or "dna" (the names Sequence.Alphabet returns); any
// other name is an error. Letters are handled as NewSequence and
// NewDNASequence handle them.
func ReadFASTA(r io.Reader, alpha string) ([]Sequence, error) {
	a, err := alphabet.ByName(alpha)
	if err != nil {
		return nil, err
	}
	seqs, err := sequence.ReadFASTA(r, a)
	if err != nil {
		return nil, err
	}
	return wrapSeqs(seqs), nil
}

// ReadFASTAFile parses all records from a FASTA file under the named
// alphabet, as ReadFASTA does.
func ReadFASTAFile(path, alpha string) ([]Sequence, error) {
	a, err := alphabet.ByName(alpha)
	if err != nil {
		return nil, err
	}
	seqs, err := sequence.ReadFASTAFileAlpha(path, a)
	if err != nil {
		return nil, err
	}
	return wrapSeqs(seqs), nil
}

// WriteFASTAFile writes sequences to a FASTA file wrapped at 60 columns.
func WriteFASTAFile(path string, seqs []Sequence) error {
	raw, err := unwrapSeqs(seqs)
	if err != nil {
		return err
	}
	return sequence.WriteFASTAFile(path, raw, 60)
}

// SyntheticSwissProt generates the library's stand-in for the paper's
// Swiss-Prot 2013_11 benchmark at the given scale (1.0 = 541,561 sequences;
// 0.01 is a comfortable laptop size). When plantQueries is true the 20
// benchmark query proteins of the paper (lengths 144..5478) are planted
// into the database, mirroring the paper's protocol of drawing queries from
// the database, and returned. The output is deterministic.
func SyntheticSwissProt(scale float64, plantQueries bool) (*Database, []Sequence) {
	seqs := datagen.Generate(datagen.SwissProtConfig(scale))
	var queries []Sequence
	if plantQueries {
		qs := datagen.GenerateQueries(1)
		datagen.PlantQueries(seqs, qs)
		queries = wrapSeqs(qs)
	}
	db, err := NewDatabase(wrapSeqs(seqs))
	if err != nil {
		// Generation cannot produce zero-value sequences.
		panic(err)
	}
	return db, queries
}

// PaperQueryLengths returns the lengths of the paper's 20 benchmark
// queries in ascending order (144..5478).
func PaperQueryLengths() []int {
	specs := datagen.PaperQueries()
	out := make([]int, len(specs))
	for i, s := range specs {
		out[i] = s.Length
	}
	return out
}
