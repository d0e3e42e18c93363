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
// order, the sort permutation, header strings and precomputed lane-group
// shapes) that OpenIndexFile restores without re-parsing or re-sorting.
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
// content: a .swdb index (restored zero-copy, no parse or sort) or a
// FASTA file (parsed, encoded and length-sorted). Every CLI database
// flag accepts both through this one entry point.
func LoadDatabaseFile(path string) (*Database, error) {
	db, _, err := index.LoadDatabase(path)
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

// LoadDNADatabaseFile is LoadDatabaseFile for nucleotide databases: a
// FASTA file is parsed under the IUPAC DNA alphabet (see NewDNASequence),
// while a .swdb index — which records its own alphabet — loads exactly as
// with LoadDatabaseFile.
func LoadDNADatabaseFile(path string) (*Database, error) {
	db, _, err := index.LoadDatabaseAlpha(path, alphabet.DNA)
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

// IsIndexFile reports whether path begins with the .swdb magic. A missing
// or unreadable file reports false.
func IsIndexFile(path string) bool {
	return index.SniffFile(path)
}
