package remote

import (
	"cmp"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"heterosw/internal/core"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
)

// int32Bytes lays scores out little-endian, four bytes each: the form
// FuzzShardScores reads a score list from.
func int32Bytes(scores []int32) []byte {
	out := make([]byte, 0, 4*len(scores))
	for _, s := range scores {
		out = binary.LittleEndian.AppendUint32(out, uint32(s))
	}
	return out
}

// FuzzShardScores pins the shard answer's wire on every input three ways:
//   - the bytes, decoded as a whole /shard/search body and checked as the
//     answer to a top-k search, never panic, and an answer over at most 64
//     subjects that passes the check merges (core.MergeAnswers) into
//     exactly the sorted hits and the histogram of the score list it
//     describes;
//   - the bytes, read as the packed varints of hits and of below counts,
//     re-encode to the same string when they decode (only the shortest
//     form is accepted);
//   - the bytes read as little-endian int32s round-trip exactly as hit
//     scores and as below counts, and SelectAnswer's answer over them,
//     reduced below 4,096, passes the check.
func FuzzShardScores(f *testing.F) {
	edges := []int32{0, 127, 128, 16383, 16384, 1 << 24, math.MaxInt32, -1}
	for _, s := range edges {
		f.Add(int32Bytes([]int32{s}))
	}
	f.Add(int32Bytes(edges))
	f.Add([]byte{})
	f.Add([]byte(`{"shard":"s","hits":[0,7,1,8,1,9],"below":"","cells":90}`))
	f.Add([]byte(`{"shard":"s","hits":"AAcBCAEJ","below":"AQ==","cells":90}`))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x00}) // overlong
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x1f})       // 2^37-1: beyond 32 bits
	f.Add([]byte{0x07, 0x80})                         // truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		k := len(data) % 5
		var whole ShardSearchResponse
		if json.Unmarshal(data, &whole) == nil {
			n := len(whole.Hits)
			for _, c := range whole.Below {
				n += c
			}
			req := &ShardSearchRequest{Shard: whole.Shard, Codes: []byte{1}, K: k}
			if whole.check(req, n, whole.Cells) == nil && n <= 64 {
				checkMerge(t, whole, n, k)
			}
		}

		str := []byte(`"` + base64.StdEncoding.EncodeToString(data) + `"`)
		var hits HitList
		if hits.UnmarshalJSON(str) == nil {
			if re, err := hits.MarshalJSON(); err != nil || string(re) != string(str) {
				t.Fatalf("%x decoded to hits %v, which re-encode to %s (%v)", data, hits, re, err)
			}
		}
		var below Counts
		if below.UnmarshalJSON(str) == nil {
			if re, err := below.MarshalJSON(); err != nil || string(re) != string(str) {
				t.Fatalf("%x decoded to counts %v, which re-encode to %s (%v)", data, below, re, err)
			}
		}

		scores := make([]int32, len(data)/4)
		for i := range scores {
			scores[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		want := ShardSearchResponse{Hits: HitList{}, Below: Counts{}, Cells: int64(len(data)), WallSeconds: 0.25}
		for i, s := range scores {
			want.Hits = append(want.Hits, core.ShardHit{Index: int32(i), Score: s})
			want.Below = append(want.Below, int(uint32(s)))
		}
		roundTrip(t, want)

		for i := range scores {
			scores[i] &= 0xfff
		}
		ans := core.SelectAnswer(scores, k)
		sent := ShardSearchResponse{Shard: "s", Hits: ans.Hits, Below: ans.Below, Cells: int64(len(data))}
		got := roundTrip(t, sent)
		req := &ShardSearchRequest{Shard: "s", Codes: []byte{1}, K: k}
		if err := got.check(req, len(scores), int64(len(data))); err != nil {
			t.Fatalf("the k=%d answer over %v fails its check: %v", k, scores, err)
		}
	})
}

// roundTrip marshals an answer, decodes it back, and fails unless the two
// are equal, empty lists decoding as empty, not nil.
func roundTrip(t *testing.T, want ShardSearchResponse) ShardSearchResponse {
	t.Helper()
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got ShardSearchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	norm := func(r ShardSearchResponse) ShardSearchResponse {
		if r.Hits == nil {
			r.Hits = HitList{}
		}
		if r.Below == nil {
			r.Below = Counts{}
		}
		return r
	}
	if !reflect.DeepEqual(norm(got), norm(want)) {
		t.Fatalf("%+v round-tripped through %s to %+v", want, body, got)
	}
	return got
}

// checkMerge fails unless an answer that passed its check merges, as the
// one shard of an n-subject database, into sortedHits and the histogram of
// the score list it describes: its hits' scores at their indices, and the
// below counts dealt out over the remaining indices in order.
func checkMerge(t *testing.T, ans ShardSearchResponse, n, k int) {
	t.Helper()
	scores := make([]int32, n)
	isHit := make([]bool, n)
	for _, h := range ans.Hits {
		scores[h.Index], isHit[h.Index] = h.Score, true
	}
	next := 0
	for s, c := range ans.Below {
		for range c {
			for isHit[next] {
				next++
			}
			scores[next] = int32(s)
			next++
		}
	}
	seqs := make([]*sequence.Sequence, n)
	idx := make([]int, n)
	for i := range seqs {
		seqs[i] = sequence.FromString(fmt.Sprintf("s%d", i), "A")
		idx[i] = i
	}
	db := seqdb.New(seqs, false)
	hits, hist := core.MergeAnswers(db, []core.Answer{{Hits: ans.Hits, Below: ans.Below}}, [][]int{idx}, k)
	if want := sortedHits(db, scores, k); !reflect.DeepEqual(hits, want) {
		t.Fatalf("answer %+v merges to hits %v, want %v", ans, hits, want)
	}
	want := make([]int, 0)
	for _, s := range scores {
		for int(s) >= len(want) {
			want = append(want, 0)
		}
		want[s]++
	}
	if !slices.Equal(hist, want) {
		t.Fatalf("answer %+v merges to histogram %v, want %v", ans, hist, want)
	}
}

// sortedHits is a score list's hits by definition: every subject, stably
// sorted by descending score, cut at k (every subject when k is 0).
func sortedHits(db *seqdb.Database, scores []int32, k int) []core.Hit {
	hits := make([]core.Hit, len(scores))
	for i, s := range scores {
		hits[i] = core.Hit{SeqIndex: i, ID: db.Seq(i).ID, Score: s}
	}
	slices.SortStableFunc(hits, func(a, b core.Hit) int { return cmp.Compare(b.Score, a.Score) })
	if k > 0 && k < len(hits) {
		hits = hits[:k]
	}
	return hits
}

// BenchmarkShardSearchResponseDecode times the coordinator's decode of one
// /shard/search answer over an 8,000-subject shard, at K = 10 and in the
// every-hit form (K = 0), and reports the body's size. Scores are those of
// a short query against unrelated subjects, 15–74, with one homolog in 400
// scoring up to 2,000.
func BenchmarkShardSearchResponseDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]int32, 8000)
	for i := range scores {
		scores[i] = int32(15 + rng.Intn(60))
		if rng.Intn(400) == 0 {
			scores[i] = int32(100 + rng.Intn(1900))
		}
	}
	for _, k := range []int{10, 0} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			ans := core.SelectAnswer(scores, k)
			body, err := json.Marshal(ShardSearchResponse{Shard: "s", Hits: ans.Hits, Below: ans.Below, Cells: 8000 * 75 * 350, WallSeconds: 0.004})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var got ShardSearchResponse
				if err := json.Unmarshal(body, &got); err != nil {
					b.Fatal(err)
				}
				if len(got.Hits) != len(ans.Hits) {
					b.Fatalf("decoded %d hits, want %d", len(got.Hits), len(ans.Hits))
				}
			}
			b.ReportMetric(float64(len(body)), "body_bytes")
		})
	}
}
