// Seedextend demonstrates the workflow the paper's introduction motivates:
// BLAST-style heuristic search built on Smith-Waterman as the rescoring
// primitive. A k-mer index finds seed matches, seeds are extended with the
// library's banded Smith-Waterman, and the candidates are compared against
// the exhaustive (full Smith-Waterman) search to measure recall.
//
// Run with: go run ./examples/seedextend [-k 4] [-band 16]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"heterosw"
)

// kmerIndex maps every k-mer to the (sequence, offset) positions where it
// occurs — the hash table BLAST builds over the database.
type kmerIndex struct {
	k    int
	post map[string][]posting
}

type posting struct {
	seq int
	off int
}

func buildIndex(db *heterosw.Database, k int) *kmerIndex {
	idx := &kmerIndex{k: k, post: make(map[string][]posting)}
	for i := 0; i < db.Len(); i++ {
		s := db.Seq(i).String()
		for off := 0; off+k <= len(s); off++ {
			w := s[off : off+k]
			idx.post[w] = append(idx.post[w], posting{seq: i, off: off})
		}
	}
	return idx
}

// seeds returns candidate (sequence, diagonal) pairs hit by exact k-mer
// matches of the query, with hit counts.
func (idx *kmerIndex) seeds(query string) map[posting]int {
	hits := make(map[posting]int)
	for off := 0; off+idx.k <= len(query); off++ {
		w := query[off : off+idx.k]
		for _, p := range idx.post[w] {
			// Key by (sequence, diagonal): diagonal = subject offset -
			// query offset, the invariant of an ungapped match.
			hits[posting{seq: p.seq, off: p.off - off}]++
		}
	}
	return hits
}

func main() {
	k := flag.Int("k", 4, "seed k-mer length")
	band := flag.Int("band", 16, "band half-width for seed extension")
	minSeeds := flag.Int("minseeds", 2, "minimum seed hits on one diagonal to trigger extension")
	flag.Parse()

	db, queries := heterosw.SyntheticSwissProt(0.002, true)
	fmt.Println("database:", db)
	query := queries[4] // 464 residues
	fmt.Printf("query:    %s (%d aa), k=%d band=%d\n\n", query.ID(), query.Len(), *k, *band)

	// Ground truth: exhaustive Smith-Waterman over the whole database.
	cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	exact, err := cl.Search(query)
	if err != nil {
		log.Fatal(err)
	}
	exactTime := time.Since(t0)
	type scored struct {
		idx, score int
	}
	var truth []scored
	for i, s := range exact.Scores {
		truth = append(truth, scored{i, int(s)})
	}
	sort.Slice(truth, func(a, b int) bool { return truth[a].score > truth[b].score })
	const topN = 10

	// Heuristic pipeline: index, seed, extend with banded SW.
	t1 := time.Now()
	idx := buildIndex(db, *k)
	indexTime := time.Since(t1)

	t2 := time.Now()
	seedHits := idx.seeds(query.String())
	candScores := make(map[int]int)
	extended := 0
	for cand, count := range seedHits {
		if count < *minSeeds {
			continue
		}
		extended++
		sc, err := heterosw.ScoreBanded(query, db.Seq(cand.seq), cand.off, *band, heterosw.AlignOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if sc > candScores[cand.seq] {
			candScores[cand.seq] = sc
		}
	}
	searchTime := time.Since(t2)

	var heuristic []scored
	for i, s := range candScores {
		heuristic = append(heuristic, scored{i, s})
	}
	sort.Slice(heuristic, func(a, b int) bool {
		if heuristic[a].score != heuristic[b].score {
			return heuristic[a].score > heuristic[b].score
		}
		return heuristic[a].idx < heuristic[b].idx
	})

	// Recall: how many of the true top-N subjects did the heuristic rank
	// in its own top-N?
	inTruth := make(map[int]bool)
	for _, t := range truth[:topN] {
		inTruth[t.idx] = true
	}
	found := 0
	for i := 0; i < topN && i < len(heuristic); i++ {
		if inTruth[heuristic[i].idx] {
			found++
		}
	}

	fmt.Printf("exhaustive SW:   %d alignments, %v\n", db.Len(), exactTime.Round(time.Millisecond))
	fmt.Printf("seed-and-extend: %d banded extensions after k-mer seeding (index build %v, search %v)\n",
		extended, indexTime.Round(time.Millisecond), searchTime.Round(time.Millisecond))
	fmt.Printf("recall: %d/%d of the true top-%d subjects recovered\n\n", found, topN, topN)

	fmt.Printf("%4s %-14s %9s %9s\n", "#", "subject", "heuristic", "exact")
	for i := 0; i < topN && i < len(heuristic); i++ {
		h := heuristic[i]
		fmt.Printf("%4d %-14s %9d %9d\n", i+1, db.Seq(h.idx).ID(), h.score, exact.Scores[h.idx])
	}
	fmt.Println("\n(heuristic scores are banded lower bounds; BLAST-style tools rescore final candidates with full SW)")
}
