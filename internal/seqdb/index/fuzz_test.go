package index

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/datagen"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
)

// fuzzMaxResidues bounds one fuzz case's total arena so a hostile spec
// cannot make a single execution quadratically slow.
const fuzzMaxResidues = 1 << 20

// seqsFromSpec decodes a fuzz spec into a sequence set: repeated uint16
// lengths, residues filled deterministically from the spec bytes, IDs
// drawn from a small pool so duplicate headers occur naturally.
func seqsFromSpec(spec []byte) []*sequence.Sequence {
	var seqs []*sequence.Sequence
	var total int
	ids := []string{"s0", "s1", "s0", "dup dup"} // includes duplicates and a spacey ID
	for pos := 0; pos+2 <= len(spec); pos += 2 {
		l := int(binary.LittleEndian.Uint16(spec[pos:]))
		if l > datagen.SwissProtMaxLen {
			l = datagen.SwissProtMaxLen
		}
		if total+l > fuzzMaxResidues {
			break
		}
		total += l
		res := make([]alphabet.Code, l)
		for j := range res {
			res[j] = alphabet.Code((int(spec[(pos+j)%len(spec)]) + j) % alphabet.Size)
		}
		i := len(seqs)
		s := &sequence.Sequence{ID: ids[i%len(ids)], Residues: res}
		if i%2 == 1 {
			s.Desc = "fuzzed record"
		}
		seqs = append(seqs, s)
	}
	return seqs
}

// le16 encodes lengths as a spec.
func le16(lengths ...int) []byte {
	out := make([]byte, 2*len(lengths))
	for i, l := range lengths {
		binary.LittleEndian.PutUint16(out[2*i:], uint16(l))
	}
	return out
}

// FuzzIndexRoundTrip drives random sequence sets through Write and Read
// and requires exact equality of residues, headers, processing order,
// lengths and lane-group partitions.
func FuzzIndexRoundTrip(f *testing.F) {
	f.Add([]byte{}, true)                         // empty database
	f.Add(le16(1), true)                          // one 1-residue sequence
	f.Add(le16(datagen.SwissProtMaxLen), true)    // the max-length sequence
	f.Add(le16(5, 5, 5), true)                    // duplicate headers (ids cycle s0,s1,s0)
	f.Add(le16(3000, 1, 4000, 2, 3500), true)     // long-sequence routing both sides of 3072
	f.Add(le16(40, 0, 7, 300, 40, 40, 40), false) // unsorted, with a 0-length spec entry
	f.Fuzz(func(t *testing.T, spec []byte, sorted bool) {
		seqs := seqsFromSpec(spec)
		db := seqdb.New(seqs, sorted)

		var buf bytes.Buffer
		sum, err := Write(&buf, db)
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		ix, err := Read(buf.Bytes())
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		got := ix.Database()
		if ix.Checksum != sum || got.Key() == "" || got.Key() != ix.Key() {
			t.Fatalf("identity: checksum %016x/%016x key %q", ix.Checksum, sum, got.Key())
		}
		if got.Len() != db.Len() || got.Residues() != db.Residues() ||
			got.MaxLen() != db.MaxLen() || got.Sorted() != db.Sorted() {
			t.Fatalf("summary %v, want %v", got, db)
		}
		for i := 0; i < db.Len(); i++ {
			w, g := db.Seq(i), got.Seq(i)
			if w.ID != g.ID || w.Desc != g.Desc {
				t.Fatalf("seq %d headers %q/%q, want %q/%q", i, g.ID, g.Desc, w.ID, w.Desc)
			}
			if len(w.Residues) != len(g.Residues) {
				t.Fatalf("seq %d length %d, want %d", i, len(g.Residues), len(w.Residues))
			}
			for j := range w.Residues {
				if w.Residues[j] != g.Residues[j] {
					t.Fatalf("seq %d residue %d: %d, want %d", i, j, g.Residues[j], w.Residues[j])
				}
			}
		}
		if !reflect.DeepEqual(db.Order(), got.Order()) {
			t.Fatal("processing order diverged")
		}
		if !reflect.DeepEqual(db.OrderLengths(), got.OrderLengths()) {
			t.Fatal("order lengths diverged")
		}
		for _, lanes := range []int{16, 64} {
			wg, wl := db.Partition(lanes, 3072)
			gg, gl := got.Partition(lanes, 3072)
			if !reflect.DeepEqual(wl, gl) || !reflect.DeepEqual(wg, gg) {
				t.Fatalf("%d-lane partition diverged", lanes)
			}
		}
	})
}
