package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
)

// stableSortHits is the paper's step 4 taken literally: every hit
// materialised, one stable sort by descending score, then the cut. It is
// the oracle the selection (SelectAnswer, then MergeAnswers) must equal hit
// for hit.
func stableSortHits(db *seqdb.Database, scores []int32, topK int) []Hit {
	hits := make([]Hit, len(scores))
	for i, s := range scores {
		hits[i] = Hit{SeqIndex: i, ID: db.Seq(i).ID, Score: s}
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].Score > hits[b].Score })
	if topK > 0 && topK < len(hits) {
		hits = hits[:topK]
	}
	return hits
}

// idDB builds an n-sequence database whose IDs name their index, so a hit
// carrying the wrong ID cannot pass for the right one.
func idDB(n int) *seqdb.Database {
	seqs := make([]*sequence.Sequence, n)
	for i := range seqs {
		seqs[i] = sequence.FromString(fmt.Sprintf("s%d", i), "A")
	}
	return seqdb.New(seqs, false)
}

// The top hits of a lone search, its one answer merged through the
// identity, are the stable sort's at every cut.
func TestTopHitsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var next int32
	draws := []struct {
		name string
		draw func() int32
	}{
		// Eight values over up to a thousand subjects: nearly every cut
		// falls inside a run of ties.
		{"ties", func() int32 { return int32(rng.Intn(8)) }},
		// The whole non-negative range, the ceiling included and repeated.
		{"wide", func() int32 {
			if rng.Intn(8) == 0 {
				return math.MaxInt32
			}
			return rng.Int31()
		}},
		// The selection's worst case: every subject beats or ties all
		// before it, so the bar never spares the buffer a score.
		{"rising", func() int32 { next++; return next / 3 }},
	}
	for _, d := range draws {
		for _, n := range []int{0, 1, 2, 17, 1000} {
			db := idDB(n)
			scores := make([]int32, n)
			for i := range scores {
				scores[i] = d.draw()
			}
			for _, k := range []int{0, 1, 10, n - 1, n, n + 5} {
				if k < 0 {
					continue
				}
				got, _ := MergeAnswers(db, []Answer{SelectAnswer(scores, k)}, nil, k)
				if want := stableSortHits(db, scores, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s scores, n=%d k=%d: the selection differs from the stable sort\n got %v\nwant %v",
						d.name, n, k, got, want)
				}
			}
		}
	}
}

// FuzzTopHits holds the lone search's selection (SelectAnswer, then
// MergeAnswers through a nil map) to the stable sort over arbitrary score
// vectors (four raw bytes a score, the sign bit cleared) and cuts.
func FuzzTopHits(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 0, 7, 0, 0, 0, 7, 0, 0, 0, 7}, uint16(2))
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff}, uint16(1))
	db := idDB(1 << 10)
	f.Fuzz(func(t *testing.T, raw []byte, k uint16) {
		n := min(len(raw)/4, db.Len())
		scores := make([]int32, n)
		for i := range scores {
			scores[i] = int32(binary.BigEndian.Uint32(raw[4*i:]) &^ (1 << 31))
		}
		got, _ := MergeAnswers(db, []Answer{SelectAnswer(scores, int(k))}, nil, int(k))
		if want := stableSortHits(db, scores, int(k)); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d k=%d: got %v, want %v", n, k, got, want)
		}
	})
}
