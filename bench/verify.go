package main

// Answer verification. It runs on retained response bodies after a round's
// servers have been stopped, so it never competes with them for the CPU.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
)

// The JSON wire, restated here because the end-to-end side imports nothing
// from heterosw: the wire is the surface under test.

type queryJSON struct {
	ID       string `json:"id"`
	Residues string `json:"residues"`
}

type searchRequest struct {
	queryJSON
	TopK   int  `json:"top_k"`
	Align  bool `json:"align,omitempty"`
	EValue bool `json:"evalue,omitempty"`
}

type batchRequest struct {
	Queries []queryJSON `json:"queries"`
	TopK    int         `json:"top_k"`
}

type alignmentJSON struct {
	QueryStart   int    `json:"query_start"`
	QueryEnd     int    `json:"query_end"`
	SubjectStart int    `json:"subject_start"`
	SubjectEnd   int    `json:"subject_end"`
	CIGAR        string `json:"cigar"`
	Identities   int    `json:"identities"`
	Columns      int    `json:"columns"`
}

type hitJSON struct {
	Index     int            `json:"index"`
	ID        string         `json:"id"`
	Score     int            `json:"score"`
	Alignment *alignmentJSON `json:"alignment"`
	BitScore  *float64       `json:"bit_score"`
	EValue    *float64       `json:"evalue"`
}

type searchJSON struct {
	ID    string    `json:"id"`
	Hits  []hitJSON `json:"hits"`
	Cells int64     `json:"cells"`
}

type batchJSON struct {
	Results []searchJSON `json:"results"`
}

// shape is the response shaping every request of a workload carries.
type shape struct {
	topK          int
	align, evalue bool
}

// database is the bench's own view of a generated database: what the
// verifier re-scores against.
type database struct {
	recs     []record
	byID     map[string]int
	residues int64
}

func newDatabase(recs []record) *database {
	db := &database{recs: recs, byID: make(map[string]int, len(recs)), residues: residues(recs)}
	for i, r := range recs {
		db.byID[r.ID] = i
	}
	return db
}

// pinned is the exact head of one query's hit list, from a full oracle scan.
type pinned struct {
	ids    []string
	scores []int
}

// scan scores q against every subject with the oracle and returns the top k
// in the server's order: descending score, ties by database position.
func (db *database) scan(q []byte, k, workers int) pinned {
	scores := make([]int, len(db.recs))
	parallel(len(db.recs), workers, func() func(i int) {
		oq := newOracleQuery(q)
		return func(i int) { scores[i] = oq.score(db.recs[i].Res) }
	})
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	var p pinned
	for _, i := range order[:min(k, len(order))] {
		p.ids = append(p.ids, db.recs[i].ID)
		p.scores = append(p.scores, scores[i])
	}
	return p
}

// verifier checks responses against one database and one response shape.
type verifier struct {
	db    *database
	shape shape
	// donorTop requires each query's first hit to be the subject its window
	// was cut from (single-window serving queries).
	donorTop bool
	seed     uint64
}

// checkSearch verifies one /search response body for q. pin, when non-nil,
// is the exact expected hit list head.
func (v *verifier) checkSearch(q query, body []byte, pin *pinned) error {
	var res searchJSON
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("%s: malformed response: %w", q.ID, err)
	}
	return v.checkResult(q, &res, pin)
}

// checkBatch verifies one /batch response: one result per query, in request
// order. It returns one error slot per query.
func (v *verifier) checkBatch(qs []query, body []byte) []error {
	errs := make([]error, len(qs))
	var res batchJSON
	if err := json.Unmarshal(body, &res); err != nil || len(res.Results) != len(qs) {
		for i, q := range qs {
			errs[i] = fmt.Errorf("%s: malformed batch response (%d results, err %v)", q.ID, len(res.Results), err)
		}
		return errs
	}
	for i, q := range qs {
		errs[i] = v.checkResult(q, &res.Results[i], nil)
	}
	return errs
}

func (v *verifier) checkResult(q query, res *searchJSON, pin *pinned) error {
	fail := func(format string, a ...any) error {
		return fmt.Errorf("%s: "+format, append([]any{q.ID}, a...)...)
	}
	if res.ID != q.ID {
		return fail("response id %q", res.ID)
	}
	if want := min(v.shape.topK, len(v.db.recs)); len(res.Hits) != want {
		return fail("%d hits, want %d", len(res.Hits), want)
	}
	if want := int64(len(q.Res)) * v.db.residues; res.Cells != want {
		return fail("cells %d, want %d", res.Cells, want)
	}
	for i, h := range res.Hits {
		at, ok := v.db.byID[h.ID]
		if !ok || at != h.Index {
			return fail("hit %d: id %q at index %d does not name a database subject", i, h.ID, h.Index)
		}
		if i > 0 && h.Score > res.Hits[i-1].Score {
			return fail("hit %d: score %d above its predecessor's %d", i, h.Score, res.Hits[i-1].Score)
		}
		if v.shape.align {
			if err := checkAlignment(q.Res, v.db.recs[at].Res, h); err != nil {
				return fail("hit %d (%s): %v", i, h.ID, err)
			}
		}
		if v.shape.evalue {
			if h.BitScore == nil || h.EValue == nil || math.IsNaN(*h.BitScore) || !(*h.EValue >= 0) {
				return fail("hit %d (%s): missing or unusable significance", i, h.ID)
			}
			if i > 0 && *h.EValue < *res.Hits[i-1].EValue {
				return fail("hit %d: E-value falls while the score does not rise", i)
			}
		}
	}
	if v.donorTop && res.Hits[0].ID != q.Donor {
		return fail("top hit %s, want donor %s", res.Hits[0].ID, q.Donor)
	}
	// Oracle re-scoring: first, last and one seeded random hit.
	last := len(res.Hits) - 1
	rng := rand.New(rand.NewPCG(v.seed, uint64(len(q.Res))<<32|uint64(res.Hits[0].Index)))
	oq := newOracleQuery(q.Res)
	for _, i := range dedup(0, last, rng.IntN(last+1)) {
		h := res.Hits[i]
		if want := oq.score(v.db.recs[h.Index].Res); h.Score != want {
			return fail("hit %d (%s): score %d, oracle %d", i, h.ID, h.Score, want)
		}
	}
	if pin != nil {
		for i := range pin.ids {
			if i >= len(res.Hits) || res.Hits[i].ID != pin.ids[i] || res.Hits[i].Score != pin.scores[i] {
				return fail("hit %d differs from the full oracle scan (want %s score %d)", i, pin.ids[i], pin.scores[i])
			}
		}
	}
	return nil
}

func dedup(xs ...int) []int {
	var out []int
	for _, x := range xs {
		seen := false
		for _, y := range out {
			seen = seen || x == y
		}
		if !seen {
			out = append(out, x)
		}
	}
	return out
}

// checkAlignment walks a hit's CIGAR over the two sequences: the path must
// stay inside the reported ranges, consume them exactly, and re-score to the
// hit's score with the reported identity and column counts.
func checkAlignment(q, s []byte, h hitJSON) error {
	a := h.Alignment
	if a == nil {
		return fmt.Errorf("no alignment")
	}
	if a.QueryStart < 0 || a.QueryEnd > len(q) || a.QueryStart > a.QueryEnd ||
		a.SubjectStart < 0 || a.SubjectEnd > len(s) || a.SubjectStart > a.SubjectEnd {
		return fmt.Errorf("ranges q[%d,%d) s[%d,%d) outside the sequences", a.QueryStart, a.QueryEnd, a.SubjectStart, a.SubjectEnd)
	}
	qi, si, score, ident, cols := a.QueryStart, a.SubjectStart, 0, 0, 0
	for rest := a.CIGAR; rest != ""; {
		n := 0
		for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
			n++
		}
		run, err := strconv.Atoi(rest[:n])
		if err != nil || run <= 0 || n == len(rest) {
			return fmt.Errorf("bad CIGAR %q", a.CIGAR)
		}
		op := rest[n]
		rest = rest[n+1:]
		cols += run
		switch op {
		case 'M':
			if qi+run > a.QueryEnd || si+run > a.SubjectEnd {
				return fmt.Errorf("CIGAR %q overruns its ranges", a.CIGAR)
			}
			for k := 0; k < run; k++ {
				score += int(blosum62[letterIndex[q[qi+k]]][letterIndex[s[si+k]]])
				if q[qi+k] == s[si+k] {
					ident++
				}
			}
			qi, si = qi+run, si+run
		case 'I':
			qi += run
			score -= gapOpen + gapExtend*run
		case 'D':
			si += run
			score -= gapOpen + gapExtend*run
		default:
			return fmt.Errorf("bad CIGAR op %q", op)
		}
	}
	switch {
	case qi != a.QueryEnd || si != a.SubjectEnd:
		return fmt.Errorf("CIGAR %q ends at q%d s%d, ranges end at q%d s%d", a.CIGAR, qi, si, a.QueryEnd, a.SubjectEnd)
	case score != h.Score:
		return fmt.Errorf("alignment path scores %d, hit says %d", score, h.Score)
	case ident != a.Identities || cols != a.Columns:
		return fmt.Errorf("path has %d identities in %d columns, hit says %d in %d", ident, cols, a.Identities, a.Columns)
	}
	return nil
}
