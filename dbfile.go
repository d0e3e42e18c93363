package heterosw

import (
	"fmt"

	"heterosw/internal/alphabet"
	"heterosw/internal/seqdb/index"
)

// ErrBadIndex is returned (wrapped) when a .swdb file fails to open:
// truncation, foreign magic, an unknown format version, a checksum
// mismatch or an inconsistent layout. Use errors.Is to test the family.
var ErrBadIndex = index.ErrBadIndex

// WriteIndexFile persists a database as a .swdb index: a binary image of
// the fully preprocessed database (encoded residues in length-sorted
// order, the sort permutation and header strings; the section that once
// held lane-group shapes is empty and reserved) that OpenIndexFile
// restores without re-parsing or re-sorting.
// Build once per database release — the swindex CLI wraps exactly this —
// and every swsearch/swserve/swbench start afterwards is O(1) per
// sequence instead of a full FASTA parse.
func WriteIndexFile(path string, db *Database) error {
	if db == nil {
		return fmt.Errorf("heterosw: nil database")
	}
	_, err := index.WriteFile(path, db.db)
	return err
}

// OpenIndexFile loads a .swdb index written by WriteIndexFile (or swindex
// build). Sequences are sliced zero-copy out of the file's contiguous
// residue arena, and the database carries a checksum-derived identity key
// so shards split from the same index share backend engines and lane
// packings.
func OpenIndexFile(path string) (*Database, error) {
	ix, err := index.Open(path)
	if err != nil {
		return nil, err
	}
	return &Database{db: ix.Database()}, nil
}

// LoadDatabaseFile opens either database representation, sniffed by
// content: a .swdb index (restored zero-copy, no parse or sort, under the
// alphabet it records) or a FASTA file (parsed under the named alphabet,
// "protein" or "dna", then encoded and length-sorted). Any other alphabet
// name is an error, for an index too. Every CLI database flag accepts
// both formats through this one entry point.
func LoadDatabaseFile(path, alpha string) (*Database, error) {
	a, err := alphabet.ByName(alpha)
	if err != nil {
		return nil, err
	}
	db, _, err := index.LoadDatabase(path, a)
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}
