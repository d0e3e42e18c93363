package remote

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
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

// FuzzShardScores pins the packed score wire on every input two ways:
//   - the bytes, decoded as a whole /shard/search body and as the packed
//     varints of one, never panic, and packed varints that decode
//     re-encode to the same string (only the shortest form is accepted);
//   - the bytes read as little-endian int32s round-trip exactly.
func FuzzShardScores(f *testing.F) {
	edges := []int32{0, 127, 128, 16383, 16384, 1 << 24, math.MaxInt32, -1}
	for _, s := range edges {
		f.Add(int32Bytes([]int32{s}))
	}
	f.Add(int32Bytes(edges))
	f.Add([]byte{})
	f.Add([]byte(`{"scores":[7,8,9],"cells":90}`))
	f.Add([]byte(`{"scores":"BwgJ","cells":90}`))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x00}) // overlong
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x1f})       // 2^37-1: beyond 32 bits
	f.Add([]byte{0x07, 0x80})                         // truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		var whole ShardSearchResponse
		_ = json.Unmarshal(data, &whole)

		str := `"` + base64.StdEncoding.EncodeToString(data) + `"`
		var packed ScoreList
		if packed.UnmarshalJSON([]byte(str)) == nil {
			re, err := packed.MarshalJSON()
			if err != nil || string(re) != str {
				t.Fatalf("%x decoded to %v, which re-encodes to %s (%v)", data, packed, re, err)
			}
		}

		scores := make(ScoreList, len(data)/4)
		for i := range scores {
			scores[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		want := ShardSearchResponse{Scores: scores, Cells: int64(len(data)), WallSeconds: 0.25}
		body, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got ShardSearchResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v round-tripped through %s to %v", want.Scores, body, got.Scores)
		}
	})
}

// BenchmarkShardSearchResponseDecode times the coordinator's decode of
// one 8,000-score /shard/search answer and reports the body's size.
// Scores are those of a short query against unrelated subjects, 15–74,
// with one homolog in 400 scoring up to 2,000.
func BenchmarkShardSearchResponseDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make(ScoreList, 8000)
	for i := range scores {
		scores[i] = int32(15 + rng.Intn(60))
		if rng.Intn(400) == 0 {
			scores[i] = int32(100 + rng.Intn(1900))
		}
	}
	body, err := json.Marshal(ShardSearchResponse{Scores: scores, Cells: 8000 * 75 * 350, WallSeconds: 0.004})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var got ShardSearchResponse
		if err := json.Unmarshal(body, &got); err != nil {
			b.Fatal(err)
		}
		if len(got.Scores) != len(scores) {
			b.Fatalf("decoded %d scores, want %d", len(got.Scores), len(scores))
		}
	}
	b.ReportMetric(float64(len(body)), "body_bytes")
}
