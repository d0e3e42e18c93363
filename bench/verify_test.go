package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// answer builds the response a correct server would give, from the oracle.
func answer(db *database, q query, k int) searchJSON {
	p := db.scan(q.Res, k, 1)
	res := searchJSON{ID: q.ID, Cells: int64(len(q.Res)) * db.residues}
	for i, id := range p.ids {
		res.Hits = append(res.Hits, hitJSON{Index: db.byID[id], ID: id, Score: p.scores[i]})
	}
	return res
}

func TestVerifierCatchesOneScoreOffByOne(t *testing.T) {
	body := genBody(11, 120)
	db := newDatabase(body)
	q := newQueryStream(11, streamLoad, "q", body).next(80)
	v := &verifier{db: db, shape: shape{topK: 5}, donorTop: true, seed: 11}
	pin := db.scan(q.Res, 5, 1)

	good := answer(db, q, 5)
	raw, _ := json.Marshal(good)
	if err := v.checkSearch(q, raw, &pin); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}

	for _, at := range []int{0, 2, 4} {
		bad := answer(db, q, 5)
		bad.Hits[at].Score--
		raw, _ := json.Marshal(bad)
		err := v.checkSearch(q, raw, &pin)
		if err == nil {
			t.Errorf("hit %d off by one went unnoticed", at)
		} else if !strings.Contains(err.Error(), q.ID) {
			t.Errorf("failure does not name the query: %v", err)
		}
	}
	// Without the pinned scan, the first and last hits are still re-scored.
	for _, at := range []int{0, 4} {
		bad := answer(db, q, 5)
		bad.Hits[at].Score--
		raw, _ := json.Marshal(bad)
		if v.checkSearch(q, raw, nil) == nil {
			t.Errorf("hit %d off by one went unnoticed without the pin", at)
		}
	}

	for name, mutate := range map[string]func(*searchJSON){
		"short":     func(r *searchJSON) { r.Hits = r.Hits[:4] },
		"wrong id":  func(r *searchJSON) { r.ID = "other" },
		"wrong hit": func(r *searchJSON) { r.Hits[1].Index++ },
		"cells":     func(r *searchJSON) { r.Cells++ },
		"order":     func(r *searchJSON) { r.Hits[0], r.Hits[1] = r.Hits[1], r.Hits[0] },
		"alien id":  func(r *searchJSON) { r.Hits[3].ID = "nobody" },
		"tail swap": func(r *searchJSON) { r.Hits[3], r.Hits[4] = r.Hits[4], r.Hits[3] },
	} {
		bad := answer(db, q, 5)
		mutate(&bad)
		raw, _ := json.Marshal(bad)
		if v.checkSearch(q, raw, &pin) == nil {
			t.Errorf("%s: went unnoticed", name)
		}
	}
	if v.checkSearch(q, []byte("{not json"), nil) == nil {
		t.Error("malformed body went unnoticed")
	}
}

func TestCheckAlignment(t *testing.T) {
	q := []byte("MKWVLAARND")
	s := []byte("GGMKWVAARNDGG")
	// MKWV-L-AARND against MKWV AARND: one query residue inserted.
	h := hitJSON{Alignment: &alignmentJSON{
		QueryStart: 0, QueryEnd: 10, SubjectStart: 2, SubjectEnd: 11,
		CIGAR: "4M1I5M", Identities: 9, Columns: 10,
	}}
	score := -(gapOpen + gapExtend)
	for _, c := range []byte("MKWVAARND") {
		score += int(blosum62[letterIndex[c]][letterIndex[c]])
	}
	h.Score = score
	if err := checkAlignment(q, s, h); err != nil {
		t.Fatalf("correct path rejected: %v", err)
	}
	for name, mutate := range map[string]func(*hitJSON){
		"score":      func(h *hitJSON) { h.Score++ },
		"identities": func(h *hitJSON) { h.Alignment.Identities-- },
		"range":      func(h *hitJSON) { h.Alignment.SubjectEnd++ },
		"cigar":      func(h *hitJSON) { h.Alignment.CIGAR = "4M1D5M" },
		"garbage":    func(h *hitJSON) { h.Alignment.CIGAR = "4M?" },
		"missing":    func(h *hitJSON) { h.Alignment = nil },
	} {
		bad := h
		a := *h.Alignment
		bad.Alignment = &a
		mutate(&bad)
		if checkAlignment(q, s, bad) == nil {
			t.Errorf("%s: went unnoticed", name)
		}
	}
}
