package core

import (
	"math"
	"slices"

	"heterosw/internal/seqdb"
	"heterosw/internal/stats"
)

// ShardHit is one hit of an Answer: a subject's index in its shard and its
// score.
type ShardHit struct {
	Index int32
	Score int32
}

// Answer is one shard's part of a top-k search. Hits, in increasing
// index, are every subject scoring at or above the shard's k-th best score,
// so the ties with the k-th are kept; Below is the histogram of every lower
// score, Below[s] subjects scoring s, for s under the lowest hit score.
// Together they cover the shard exactly once. With k = 0 every subject is
// a hit and Below is empty, and Below is nil too when the lowest hit scores
// above stats.MaxScore: no fit reads a histogram past that bound. A shard node caches and sends its Answer, and
// MergeAnswers rebuilds from the shards' answers the hits and the score
// histogram a search of the unsplit database would have.
type Answer struct {
	Hits  []ShardHit
	Below []int
}

// SelectAnswer builds the k-answer (0: every subject) of a shard from its
// score list, Smith-Waterman scores and so non-negative, the one selection
// every search's hits come from (a lone search's shard is the whole
// database). It reads the scores twice: once for the
// k-th best score, over a buffer of 2k scores cut back to k whenever it
// fills, and once to split the subjects into hits and the histogram below
// them.
func SelectAnswer(scores []int32, k int) Answer {
	n := len(scores)
	if k <= 0 || k >= n {
		hits := make([]ShardHit, n)
		for i, s := range scores {
			hits[i] = ShardHit{Index: int32(i), Score: s}
		}
		return Answer{Hits: hits}
	}
	// kth is the k-th largest score: a score at or below the bar, the
	// k-th largest of the buffer once it was first cut, cannot move it.
	buf := make([]int32, 0, 2*k)
	cut := false
	var bar int32
	for _, s := range scores {
		if cut && s <= bar {
			continue
		}
		buf = append(buf, s)
		if len(buf) == 2*k {
			slices.Sort(buf)
			buf = append(buf[:0], buf[k:]...)
			bar, cut = buf[0], true
		}
	}
	slices.Sort(buf)
	kth := buf[len(buf)-k]

	hits := make([]ShardHit, 0, k)
	var below []int
	if kth <= stats.MaxScore {
		below = make([]int, kth)
	}
	for i, s := range scores {
		if s >= kth {
			hits = append(hits, ShardHit{Index: int32(i), Score: s})
		} else if below != nil {
			below[s]++
		}
	}
	for len(below) > 0 && below[len(below)-1] == 0 {
		below = below[:len(below)-1]
	}
	return Answer{Hits: hits, Below: below}
}

// MergeAnswers merges the answers of a parent database's shards, each
// answered for the same k: answers[i] is shard i's (the zero Answer for an
// empty shard) and idx[i] maps its indices to the parent's; a nil idx maps
// each index to itself, the lone answer of a search over the parent. It
// returns the parent's k best hits (every hit when k is 0), score
// descending then parent index, and the parent's score histogram (see
// mergeHist). A subject among the parent's k best is among its own shard's
// k best, so the hits are the parent's score list stably sorted by
// descending score and cut at k, and the histogram is the one
// stats.FitEValues would count from it.
func MergeAnswers(db *seqdb.Database, answers []Answer, idx [][]int, k int) ([]Hit, []int) {
	size := 0
	for _, a := range answers {
		size += len(a.Hits)
	}
	keys := make([]uint64, 0, size)
	for i, a := range answers {
		for _, h := range a.Hits {
			pi := int(h.Index)
			if idx != nil {
				pi = idx[i][pi]
			}
			keys = append(keys, hitKey(h.Score, pi))
		}
	}
	slices.Sort(keys)
	if k > 0 && k < len(keys) {
		keys = keys[:k]
	}
	return keyHits(db, keys), mergeHist(answers)
}

// mergeHist sums the answers into one score histogram, the Below arrays
// and a count of every hit. It is nil when a score exceeds stats.MaxScore,
// which no fit accepts, so the histogram is never longer than that bound.
func mergeHist(answers []Answer) []int {
	top := 0
	for _, a := range answers {
		top = max(top, len(a.Below))
		for _, h := range a.Hits {
			top = max(top, int(h.Score)+1)
		}
	}
	if top > stats.MaxScore+1 {
		return nil
	}
	hist := make([]int, top)
	for _, a := range answers {
		for s, c := range a.Below {
			hist[s] += c
		}
		for _, h := range a.Hits {
			hist[h.Score]++
		}
	}
	return hist
}

// hitKey orders hits score descending then index ascending, in one uint64
// compare.
func hitKey(s int32, i int) uint64 {
	return uint64(uint32(math.MaxInt32-int64(s)))<<32 | uint64(uint32(i))
}

// keyHits builds the hit of each key, in key order.
func keyHits(db *seqdb.Database, keys []uint64) []Hit {
	hits := make([]Hit, len(keys))
	for j, key := range keys {
		i := int(uint32(key))
		hits[j] = Hit{SeqIndex: i, ID: db.Seq(i).ID, Score: int32(math.MaxInt32 - int64(key>>32))}
	}
	return hits
}
