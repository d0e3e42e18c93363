package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"heterosw/internal/stats"
)

// histogram counts a score list, hist[s] scores equal to s, as long as
// the largest score plus one.
func histogram(scores []int32) []int {
	top := 0
	for _, s := range scores {
		top = max(top, int(s)+1)
	}
	hist := make([]int, top)
	for _, s := range scores {
		hist[s]++
	}
	return hist
}

// oracleAnswer is SelectAnswer by its definition: the k-th best score read
// from a sorted copy, every subject at or above it a hit, and the rest
// counted up to their largest score.
func oracleAnswer(scores []int32, k int) Answer {
	var want Answer
	kth := int32(math.MinInt32)
	if k > 0 && k < len(scores) {
		sorted := slices.Clone(scores)
		slices.Sort(sorted)
		kth = sorted[len(sorted)-k]
	}
	var rest []int32
	for i, s := range scores {
		if s >= kth {
			want.Hits = append(want.Hits, ShardHit{Index: int32(i), Score: s})
		} else {
			rest = append(rest, s)
		}
	}
	want.Below = histogram(rest)
	return want
}

// TestSelectAnswerKeepsTies pins the answer's shape on one small list: the
// hits are every subject at or above the k-th best score, in index order,
// and Below counts the rest without trailing empty buckets.
func TestSelectAnswerKeepsTies(t *testing.T) {
	scores := []int32{3, 9, 5, 9, 1, 5, 5, 0, 3}
	for _, tc := range []struct {
		k     int
		hits  []ShardHit
		below []int
	}{
		{1, []ShardHit{{1, 9, 0}, {3, 9, 0}}, []int{1, 1, 0, 2, 0, 3}},
		{2, []ShardHit{{1, 9, 0}, {3, 9, 0}}, []int{1, 1, 0, 2, 0, 3}},
		{3, []ShardHit{{1, 9, 0}, {2, 5, 0}, {3, 9, 0}, {5, 5, 0}, {6, 5, 0}}, []int{1, 1, 0, 2}},
		{6, []ShardHit{{0, 3, 0}, {1, 9, 0}, {2, 5, 0}, {3, 9, 0}, {5, 5, 0}, {6, 5, 0}, {8, 3, 0}}, []int{1, 1}},
		{8, []ShardHit{{0, 3, 0}, {1, 9, 0}, {2, 5, 0}, {3, 9, 0}, {4, 1, 0}, {5, 5, 0}, {6, 5, 0}, {8, 3, 0}}, []int{1}},
	} {
		got := SelectAnswer(scores, tc.k)
		if !slices.Equal(got.Hits, tc.hits) || !slices.Equal(got.Below, tc.below) {
			t.Errorf("k=%d: answer %v below %v, want %v below %v", tc.k, got.Hits, got.Below, tc.hits, tc.below)
		}
	}
	for _, k := range []int{0, len(scores), len(scores) + 1} {
		got := SelectAnswer(scores, k)
		if len(got.Hits) != len(scores) || got.Below != nil {
			t.Errorf("k=%d: %d hits and below %v, want every subject a hit", k, len(got.Hits), got.Below)
		}
	}
}

// A score past stats.MaxScore, which no fit accepts, selects like any
// other, but no histogram is counted for it: the merged histogram is nil,
// and so is the Below of an answer whose lowest hit is past the bound.
func TestSelectionBoundsHistogram(t *testing.T) {
	scores := []int32{3, stats.MaxScore + 2, 5, stats.MaxScore + 1, 5}
	db := idDB(len(scores))
	for _, tc := range []struct {
		k     int
		below []int
	}{{0, nil}, {1, nil}, {2, nil}, {3, []int{0, 0, 0, 1}}, {5, nil}} {
		a := SelectAnswer(scores, tc.k)
		if !slices.Equal(a.Below, tc.below) || (a.Below == nil) != (tc.below == nil) {
			t.Errorf("k=%d: below %v, want %v", tc.k, a.Below, tc.below)
		}
		hits, hist := MergeAnswers(db, []Answer{a}, nil, tc.k)
		if want := stableSortHits(db, scores, tc.k); !reflect.DeepEqual(hits, want) {
			t.Errorf("k=%d: hits %v, want %v", tc.k, hits, want)
		}
		if hist != nil {
			t.Errorf("k=%d: histogram of %d buckets, want none", tc.k, len(hist))
		}
	}
}

// FuzzShardTopMerge pins the selection end to end: a score list with
// heavy ties, cut into 1–4 shards by a random one-to-one map that is not
// monotone, each shard answering SelectAnswer for one k in 0..n+1, must
// merge (MergeAnswers) into exactly the stable sort of the whole list cut
// at k, and into its histogram, so the fit equals stats.FitEValues over the
// list.
func FuzzShardTopMerge(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint16(0), int64(1))
	f.Add([]byte{5, 5, 5, 5, 5}, uint8(2), uint16(2), int64(2))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint8(3), uint16(10), int64(3))
	f.Add(make([]byte, 64), uint8(4), uint16(65), int64(4))
	spread := make([]byte, 200)
	for i := range spread {
		spread[i] = byte(i * 37)
	}
	f.Add(spread, uint8(4), uint16(7), int64(5))
	// Ties run past the k-th score on every shard.
	f.Add(slices.Repeat([]byte{3}, 40), uint8(0), uint16(5), int64(6))
	f.Add(slices.Repeat([]byte{3, 4, 4}, 30), uint8(2), uint16(7), int64(7))
	f.Fuzz(func(t *testing.T, data []byte, nshards uint8, k16 uint16, seed int64) {
		n := len(data)
		scores := make([]int32, n)
		for i, b := range data {
			// Mostly a few tied values, now and then a far higher one.
			scores[i] = int32(b % 8)
			if b >= 0xf0 {
				scores[i] = int32(b) * 3
			}
		}
		k := int(k16) % (n + 2)
		rng := rand.New(rand.NewSource(seed))
		shards := 1 + int(nshards)%4
		idx := make([][]int, shards)
		for _, pi := range rng.Perm(n) {
			i := rng.Intn(shards)
			idx[i] = append(idx[i], pi)
		}
		answers := make([]Answer, shards)
		for i, m := range idx {
			sub := make([]int32, len(m))
			for j, pi := range m {
				sub[j] = scores[pi]
			}
			answers[i] = SelectAnswer(sub, k)
			if want := oracleAnswer(sub, k); !slices.Equal(answers[i].Hits, want.Hits) || !slices.Equal(answers[i].Below, want.Below) {
				t.Fatalf("shard %d, k=%d: answer %v, want %v", i, k, answers[i], want)
			}
		}
		db := idDB(n)
		hits, hist := MergeAnswers(db, answers, idx, k)
		if want := stableSortHits(db, scores, k); !reflect.DeepEqual(hits, want) {
			t.Fatalf("k=%d over %d shards: merged hits %v, want %v", k, shards, hits, want)
		}
		if want := histogram(scores); !slices.Equal(hist, want) {
			t.Fatalf("k=%d over %d shards: merged histogram %v, want %v", k, shards, hist, want)
		}
		want, werr := stats.FitEValues(scores, 0)
		got, gerr := stats.FitHistogram(hist, 0)
		if (werr == nil) != (gerr == nil) || (werr == nil && *got != *want) {
			t.Fatalf("k=%d: fit over the merge %v (%v), want %v (%v)", k, got, gerr, want, werr)
		}
	})
}
