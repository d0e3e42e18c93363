// Package index implements the persistent preprocessed database format
// `.swdb`: a versioned binary image of a seqdb.Database with every piece of
// startup preprocessing already done. A search path loading an index pays
// neither the FASTA parse, nor the residue encoding, nor the length sort —
// opening is O(1) work per sequence (slice headers over one contiguous
// residue arena) instead of O(residues) parsing, the same amortisation
// BLAST-style preformatted databases and SWAPHI's pre-packed device buffers
// buy for large references.
//
// # Layout (version 1, little-endian)
//
//	offset  size      field
//	0       4         magic "SWDB"
//	4       4         version (1)
//	8       4         flags (bit 0: length-sorted processing order;
//	                  bit 1: DNA alphabet)
//	12      4         alphabet length A
//	16      8         sequence count N
//	24      8         residue arena length R (bytes)
//	32      8         header-string blob length H
//	40      8         reserved section length S (written 0)
//	48      4         max sequence length
//	52      4         reserved count (written 0, not read)
//	56      8         checksum: CRC-32C (Castagnoli) over bytes
//	                  [0,56) ++ [64,EOF), widened to uint64
//	64      A         alphabet letters (the database alphabet's letter
//	                  string, which must resolve via alphabet.ByLetters
//	                  and agree with the DNA flag bit)
//	...     4N        sequence lengths, uint32, caller order
//	...     8N        arena offsets, uint64, caller order
//	...     4N        processing order, uint32: order[i] = caller index
//	...     H         header blob: per sequence, uvarint(len(ID)) ID
//	                  uvarint(len(Desc)) Desc, caller order
//	...     S         reserved: skipped on read
//	...     R         residue arena: encoded residues packed back-to-back
//	                  in processing order
//
// The reserved section once held precomputed lane-group shape tables, which
// nothing read; files that still carry them open unchanged, since a reader
// skips the S bytes (the size check and the checksum still cover them).
//
// The checksum covers the whole file except its own field, so any flipped
// bit — header or payload — is detected at open. CRC-32C is chosen over a
// wider CRC because it is hardware-accelerated on every platform this
// targets: checksumming dominates the open path, and database readiness is
// the whole point of the format. Structural validation (offsets and
// lengths inside the arena, the order being a permutation, residue codes
// in range) still runs after the checksum, as defence in depth against a
// consistent but hostile file; the engine-sharing identity key folds the
// sequence and residue counts in beside the checksum so accidental 32-bit
// collisions between different databases cannot alias engines.
package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"unsafe"

	"heterosw/internal/alphabet"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
)

// Magic identifies a .swdb file; Version is the current format revision.
const (
	Magic   = "SWDB"
	Version = 1
)

// headerSize is the fixed header length in bytes.
const headerSize = 64

// flagSorted marks a length-sorted processing order; flagDNA marks a
// database encoded under the IUPAC DNA alphabet (absent: protein, keeping
// pre-DNA protein images byte-identical and readable by older readers).
const (
	flagSorted = 1
	flagDNA    = 2
)

// The ErrBadIndex family: every way an index can fail to open wraps
// ErrBadIndex, so callers can test the family with one errors.Is while
// tests (and operators) still distinguish the failure mode.
var (
	// ErrBadIndex is the family root: the file is not a usable index.
	ErrBadIndex = errors.New("swdb: invalid index")
	// ErrBadMagic marks a file that is not a .swdb index at all.
	ErrBadMagic = fmt.Errorf("%w: bad magic", ErrBadIndex)
	// ErrBadVersion marks an index written by an unknown format revision.
	ErrBadVersion = fmt.Errorf("%w: unsupported version", ErrBadIndex)
	// ErrTruncated marks a file shorter (or longer) than its header claims.
	ErrTruncated = fmt.Errorf("%w: truncated file", ErrBadIndex)
	// ErrBadChecksum marks a checksum mismatch: the file was corrupted
	// after it was written.
	ErrBadChecksum = fmt.Errorf("%w: checksum mismatch", ErrBadIndex)
	// ErrBadOffset marks an offset/length table entry pointing outside the
	// residue arena.
	ErrBadOffset = fmt.Errorf("%w: offset table points past the arena", ErrBadIndex)
	// ErrBadLayout marks any other structural inconsistency (alphabet
	// mismatch, non-permutation order, malformed header blob, invalid
	// residue codes).
	ErrBadLayout = fmt.Errorf("%w: inconsistent layout", ErrBadIndex)
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum computes the file checksum: CRC-32C over the header (with the
// checksum field excluded) and the payload, widened to the format's
// 8-byte field.
func checksum(header, payload []byte) uint64 {
	crc := crc32.Update(0, crcTable, header)
	return uint64(crc32.Update(crc, crcTable, payload))
}

// Index is an opened .swdb image: the restored database and its identity.
type Index struct {
	// Checksum is the file's CRC-32C content fingerprint (widened to the
	// format's 8-byte field); matching checksums with matching headline
	// counts identify identical indexes.
	Checksum uint64
	// Sorted reports whether the processing order is length-sorted.
	Sorted bool

	db *seqdb.Database
}

// Database returns the restored database. Its sequences alias the index's
// residue arena (zero per-sequence copies) and its Key() is derived from
// the checksum, so shards split from two loads of the same index share
// backend engines.
func (ix *Index) Database() *seqdb.Database { return ix.db }

// Key returns the database identity key derived from the checksum and the
// database's headline counts.
func (ix *Index) Key() string {
	return checksumKey(ix.Checksum, uint64(ix.db.Len()), uint64(ix.db.Residues()))
}

// checksumKey derives the engine-sharing identity key: the checksum plus
// the sequence and residue counts, so a 32-bit CRC collision between
// different databases cannot alias their engines.
func checksumKey(sum, nSeqs, residues uint64) string {
	return fmt.Sprintf("swdb:%08x-%d-%d", sum, nSeqs, residues)
}

// Write serialises db as a version-1 .swdb image and returns its checksum.
func Write(w io.Writer, db *seqdb.Database) (uint64, error) {
	if db == nil {
		return 0, fmt.Errorf("swdb: nil database")
	}
	n := db.Len()
	if int64(n) > int64(^uint32(0)) {
		return 0, fmt.Errorf("swdb: %d sequences exceed the format's uint32 order table", n)
	}
	order := db.Order()
	alpha := db.Alphabet()

	var payload bytes.Buffer
	payload.WriteString(alpha.Letters())

	// Lengths and (sorted-order) arena offsets, both in caller order.
	offsets := make([]uint64, n)
	var off uint64
	for _, si := range order {
		offsets[si] = off
		off += uint64(db.Seq(si).Len())
	}
	var u32 [4]byte
	var u64 [8]byte
	for i := 0; i < n; i++ {
		l := db.Seq(i).Len()
		if int64(l) > int64(^uint32(0)) {
			return 0, fmt.Errorf("swdb: sequence %d: %d residues exceed the format's uint32 length table", i, l)
		}
		binary.LittleEndian.PutUint32(u32[:], uint32(l))
		payload.Write(u32[:])
	}
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(u64[:], offsets[i])
		payload.Write(u64[:])
	}
	for _, si := range order {
		binary.LittleEndian.PutUint32(u32[:], uint32(si))
		payload.Write(u32[:])
	}

	// Header-string blob.
	blobStart := payload.Len()
	var uv [binary.MaxVarintLen64]byte
	for i := 0; i < n; i++ {
		s := db.Seq(i)
		payload.Write(uv[:binary.PutUvarint(uv[:], uint64(len(s.ID)))])
		payload.WriteString(s.ID)
		payload.Write(uv[:binary.PutUvarint(uv[:], uint64(len(s.Desc)))])
		payload.WriteString(s.Desc)
	}
	blobLen := payload.Len() - blobStart

	// Residue arena: raw codes packed back-to-back in processing order,
	// one memcpy per sequence via the byte view.
	for _, si := range order {
		payload.Write(alphabet.BytesView(db.Seq(si).Residues))
	}

	var hdr [headerSize]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	flags := uint32(0)
	if db.Sorted() {
		flags |= flagSorted
	}
	if alpha == alphabet.DNA {
		flags |= flagDNA
	}
	binary.LittleEndian.PutUint32(hdr[8:12], flags)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(alpha.Letters())))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(db.Residues()))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(blobLen))
	binary.LittleEndian.PutUint32(hdr[48:52], uint32(db.MaxLen()))

	sum := checksum(hdr[:56], payload.Bytes())
	binary.LittleEndian.PutUint64(hdr[56:64], sum)

	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return 0, err
	}
	return sum, nil
}

// WriteFile writes db as a .swdb file, atomically: the image lands in a
// temporary file in the target directory and is renamed into place. This
// makes rebuilding an index over itself safe — the source mapping keeps
// its inode until unmapped, so `swindex build db.swdb` (or any
// WriteIndexFile over a database loaded from the same path) can never
// truncate the pages it is still reading — and a crash mid-write never
// leaves a half-written index at path.
func WriteFile(path string, db *seqdb.Database) (uint64, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		// A bare filename must keep the temp file beside the target:
		// os.CreateTemp("") would fall back to the system temp directory,
		// making the rename cross-filesystem (EXDEV) and non-atomic.
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return 0, err
	}
	sum, err := Write(f, db)
	if err == nil {
		// CreateTemp's private 0600 would stick through the rename; the
		// published index is a conventional shareable artifact.
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return 0, err
	}
	return sum, nil
}

// Read parses a .swdb image held in memory. The returned Index (and every
// sequence of its database) aliases data, which must not be mutated
// afterwards.
func Read(data []byte) (*Index, error) {
	if len(data) < headerSize {
		if len(data) >= 4 && string(data[0:4]) != Magic {
			return nil, ErrBadMagic
		}
		return nil, ErrTruncated
	}
	if string(data[0:4]) != Magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, fmt.Errorf("%w %d (have %d)", ErrBadVersion, v, Version)
	}
	flags := binary.LittleEndian.Uint32(data[8:12])
	alphaLen := uint64(binary.LittleEndian.Uint32(data[12:16]))
	nSeqs := binary.LittleEndian.Uint64(data[16:24])
	arenaLen := binary.LittleEndian.Uint64(data[24:32])
	blobLen := binary.LittleEndian.Uint64(data[32:40])
	reservedLen := binary.LittleEndian.Uint64(data[40:48])
	wantSum := binary.LittleEndian.Uint64(data[56:64])

	if nSeqs > uint64(^uint32(0)) {
		return nil, fmt.Errorf("%w: %d sequences", ErrBadLayout, nSeqs)
	}
	// Exact size check before anything else: a truncated (or padded) file
	// is reported as such, not as a checksum mismatch.
	total, ok := addAll(headerSize, alphaLen, 16*nSeqs, blobLen, reservedLen, arenaLen)
	if !ok {
		return nil, fmt.Errorf("%w: section sizes overflow", ErrBadLayout)
	}
	if uint64(len(data)) != total {
		return nil, fmt.Errorf("%w: %d bytes, header describes %d", ErrTruncated, len(data), total)
	}

	if got := checksum(data[:56], data[headerSize:]); got != wantSum {
		return nil, fmt.Errorf("%w: computed %016x, stored %016x", ErrBadChecksum, got, wantSum)
	}

	pos := uint64(headerSize)
	alpha, err := alphabet.ByLetters(string(data[pos : pos+alphaLen]))
	if err != nil {
		return nil, fmt.Errorf("%w: alphabet %q", ErrBadLayout, data[pos:pos+alphaLen])
	}
	if (flags&flagDNA != 0) != (alpha == alphabet.DNA) {
		return nil, fmt.Errorf("%w: DNA flag disagrees with the %s alphabet letters",
			ErrBadLayout, alpha.Name())
	}
	pos += alphaLen

	n := int(nSeqs)
	lengthsRaw := data[pos : pos+4*nSeqs]
	pos += 4 * nSeqs
	offsetsRaw := data[pos : pos+8*nSeqs]
	pos += 8 * nSeqs
	order := make([]int, n)
	for i := range order {
		order[i] = int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
	}

	blob := data[pos : pos+blobLen]
	pos += blobLen + reservedLen
	arena := alphabet.CodesView(data[pos : pos+arenaLen])
	if !alpha.ValidCodes(arena) {
		return nil, fmt.Errorf("%w: arena holds out-of-range residue codes", ErrBadLayout)
	}

	// One struct block for all sequences: the open path is the product the
	// format sells, so per-sequence work is kept to slice headers. IDs and
	// descriptions are unsafe string views over the blob — data is
	// immutable by contract.
	seqArr := make([]sequence.Sequence, n)
	seqs := make([]*sequence.Sequence, n)
	bpos := 0
	for i := 0; i < n; i++ {
		off := binary.LittleEndian.Uint64(offsetsRaw[8*i:])
		l := uint64(binary.LittleEndian.Uint32(lengthsRaw[4*i:]))
		end := off + l
		if end < off || end > arenaLen {
			return nil, fmt.Errorf("%w (sequence %d: offset %d + length %d > %d)",
				ErrBadOffset, i, off, l, arenaLen)
		}
		id, ok := blobString(blob, &bpos)
		if !ok {
			return nil, fmt.Errorf("%w: header blob: sequence %d ID", ErrBadLayout, i)
		}
		desc, ok := blobString(blob, &bpos)
		if !ok {
			return nil, fmt.Errorf("%w: header blob: sequence %d description", ErrBadLayout, i)
		}
		seqArr[i] = sequence.Sequence{ID: id, Desc: desc, Residues: arena[off:end:end], Alpha: alpha}
		seqs[i] = &seqArr[i]
	}
	if bpos != len(blob) {
		return nil, fmt.Errorf("%w: %d trailing header-blob bytes", ErrBadLayout, len(blob)-bpos)
	}

	db, err := seqdb.Restore(seqs, order, flags&flagSorted != 0, checksumKey(wantSum, nSeqs, arenaLen))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLayout, err)
	}
	return &Index{Checksum: wantSum, Sorted: flags&flagSorted != 0, db: db}, nil
}

// blobString reads one uvarint-length-prefixed string at *pos, advancing
// it. The returned string aliases blob (zero-copy).
func blobString(blob []byte, pos *int) (string, bool) {
	v, k := binary.Uvarint(blob[*pos:])
	if k <= 0 {
		return "", false
	}
	p := *pos + k
	if v > uint64(len(blob)-p) {
		return "", false
	}
	*pos = p + int(v)
	if v == 0 {
		return "", true
	}
	return unsafe.String(&blob[p], int(v)), true
}

// Open maps (on unix; reads elsewhere) and parses a .swdb file: the
// residue arena is never copied, only sliced — the map-and-go startup
// path. The mapping is shared with the returned database for its
// lifetime; indexes back long-lived processes, so it is never unmapped.
func Open(path string) (*Index, error) {
	data, err := readFileMapped(path)
	if err != nil {
		return nil, err
	}
	return Read(data)
}

// Sniff reports whether data begins with the .swdb magic.
func Sniff(data []byte) bool {
	return len(data) >= len(Magic) && string(data[0:len(Magic)]) == Magic
}

// SniffFile reports whether path begins with the .swdb magic. A missing
// or unreadable file reports false.
func SniffFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	head := make([]byte, len(Magic))
	n, _ := io.ReadFull(f, head)
	return Sniff(head[:n])
}

// LoadDatabase opens either database representation, sniffed by magic:
// a .swdb index (mapped zero-copy, carrying its own alphabet) or a FASTA
// file (parsed under the protein alphabet, encoded and length-sorted). The
// returned kind is "swdb" or "fasta".
func LoadDatabase(path string) (*seqdb.Database, string, error) {
	return LoadDatabaseAlpha(path, alphabet.Protein)
}

// LoadDatabaseAlpha is LoadDatabase with an explicit alphabet for the
// FASTA path. A .swdb index always decodes under its persisted alphabet;
// fastaAlpha only governs how bare FASTA input is encoded.
func LoadDatabaseAlpha(path string, fastaAlpha *alphabet.Alphabet) (*seqdb.Database, string, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, "", err
	}
	if SniffFile(path) {
		ix, err := Open(path)
		if err != nil {
			return nil, "", err
		}
		return ix.Database(), "swdb", nil
	}
	seqs, err := sequence.ReadFASTAFileAlpha(path, fastaAlpha)
	if err != nil {
		return nil, "", err
	}
	return seqdb.New(seqs, true), "fasta", nil
}

// addAll sums uint64s, reporting overflow.
func addAll(vs ...uint64) (uint64, bool) {
	var sum uint64
	for _, v := range vs {
		next := sum + v
		if next < sum {
			return 0, false
		}
		sum = next
	}
	return sum, true
}
