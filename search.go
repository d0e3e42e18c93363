package heterosw

import (
	"fmt"

	"heterosw/internal/core"
	"heterosw/internal/seqdb"
	"heterosw/internal/translate"
)

// Database is an indexed collection of target sequences ready for
// searching, all under one alphabet (Alphabet). Build one with
// NewDatabase, LoadDatabaseFile (which names the alphabet of a FASTA
// file), OpenIndexFile or SyntheticSwissProt, and search it through a
// Cluster (NewCluster), whose engine caches the lane packings so repeated
// searches amortise pre-processing exactly as the paper's step 2 does. A
// Database is immutable and safe for concurrent use.
type Database struct {
	db *seqdb.Database
}

// NewDatabase indexes sequences with the paper's pre-processing: the
// processing order is sorted by length so lane groups pack tightly and
// scheduling stays balanced. Every sequence must share the first one's
// alphabet.
func NewDatabase(seqs []Sequence) (*Database, error) {
	raw, err := unwrapSeqs(seqs)
	if err != nil {
		return nil, err
	}
	for i, s := range raw {
		if a := raw[0].Alphabet(); s.Alphabet() != a {
			return nil, fmt.Errorf("heterosw: sequence %d (%q) holds %s residues in a %s database",
				i, s.ID, s.Alphabet().Name(), a.Name())
		}
	}
	return &Database{db: seqdb.New(raw, true)}, nil
}

// Len returns the number of sequences.
func (d *Database) Len() int { return d.db.Len() }

// Alphabet returns the name of the alphabet every database sequence is
// encoded under: "protein" or "dna".
func (d *Database) Alphabet() string { return d.db.Alphabet().Name() }

// Residues returns the total residue count.
func (d *Database) Residues() int64 { return d.db.Residues() }

// Key returns the database's durable content identity — the
// checksum-derived key of a .swdb-loaded database (see OpenIndexFile) —
// or "" for an in-memory database, which has no durable identity. The
// distributed layer routes shards by this key.
func (d *Database) Key() string { return d.db.Key() }

// Seq returns the i-th sequence in the caller's original order.
func (d *Database) Seq(i int) Sequence { return Sequence{impl: d.db.Seq(i)} }

// String summarises the database.
func (d *Database) String() string { return d.db.String() }

// Hit is one database match.
type Hit struct {
	// Index is the subject's position in the database (original order).
	Index int
	// ID is the subject's identifier.
	ID string
	// Score is the optimal Smith-Waterman score.
	Score int
	// Frame is the reading frame (+1, +2, +3, -1, -2, -3) the hit's best
	// score was found in, for translated searches (Request.Translate); 0
	// for direct protein or DNA searches.
	Frame int
	// Alignment carries the phase-two traceback detail (coordinates,
	// CIGAR, identities). It is nil unless the search requested
	// ReportOptions.Alignments and the hit is within the report's top-K.
	Alignment *HitAlignment
	// Significance carries the hit's bit score and E-value under the
	// search's fitted null model; nil unless ReportOptions.EValues.
	Significance *HitSignificance
}

// HitAlignment is the traceback decoration of one hit: the aligned
// segments recovered by re-aligning the query against the subject with
// the dynamic-programming recurrence and backtracking (reporting phase
// two). It is also the "alignment" object of a /search hit.
type HitAlignment struct {
	// QueryStart/QueryEnd and SubjectStart/SubjectEnd delimit the aligned
	// segments as half-open residue ranges. For translated searches the
	// query coordinates count residues of the hit's reading frame.
	QueryStart   int `json:"query_start"`
	QueryEnd     int `json:"query_end"`
	SubjectStart int `json:"subject_start"`
	SubjectEnd   int `json:"subject_end"`
	// QueryDNAStart/QueryDNAEnd delimit, for translated searches, the
	// half-open nucleotide range of the original DNA query (forward-strand
	// coordinates) the aligned frame segment was translated from; both
	// zero, and absent from JSON, for direct searches.
	QueryDNAStart int `json:"query_dna_start,omitempty"`
	QueryDNAEnd   int `json:"query_dna_end,omitempty"`
	// CIGAR is the alignment path in run-length notation, e.g. "12M2D5M".
	CIGAR string `json:"cigar"`
	// Identities counts exactly-matching columns; Columns is the total
	// alignment length.
	Identities int `json:"identities"`
	Columns    int `json:"columns"`
}

// HitSignificance is a hit's statistical significance under the fitted
// Gumbel null model of its search (Result.Significance).
type HitSignificance struct {
	// BitScore is the raw score on the fitted model's bit scale; EValue
	// the expected number of equal-or-better chance hits in a database of
	// this size. E-values well below 1 indicate likely homology.
	BitScore float64
	EValue   float64
}

// Result reports a database search: its hits, its counters and, when the
// search asked for E-values, its fitted null model. Every door returns one.
// Every subject's score is the hit list of a search with TopK 0 and no
// reporting phase.
type Result struct {
	// Hits is sorted by descending score (the paper's step 4), ties by
	// database order, truncated to TopK when requested.
	Hits []Hit
	// Cells is the number of dynamic-programming cell updates (the GCUPS
	// numerator).
	Cells int64
	// WallSeconds is the search's wall time on the host and WallGCUPS its
	// rate, Cells over WallSeconds in billions. (What the search would take
	// on the modelled devices is Cluster.Plan's answer.)
	WallSeconds float64
	WallGCUPS   float64
	// Overflows counts 16-bit lane saturations escalated to 32-bit
	// recomputation — the ladder's top tier, reached from the 16-bit first
	// pass or from an already-escalated 8-bit lane.
	Overflows int64
	// Overflows8 counts 8-bit first-pass saturations escalated to the
	// 16-bit lane pass. Searches start in byte lanes wherever the gap
	// penalties allow, so every subject scoring 255 or more counts here.
	Overflows8 int64
	// OverflowCells counts the cell updates the escalations recomputed,
	// across both tiers.
	OverflowCells int64
	// Significance is the Gumbel null model fitted over the full score
	// distribution when the search requested ReportOptions.EValues; nil
	// otherwise.
	Significance *Significance
}

// wrapResult converts r, naming each hit's frame when frames are set.
func wrapResult(r *core.Result, frames []*translate.Frame) *Result {
	out := &Result{
		Hits:          make([]Hit, len(r.Hits)),
		Cells:         r.Stats.Cells,
		WallSeconds:   r.WallSeconds,
		Overflows:     r.Stats.Overflows,
		Overflows8:    r.Stats.Overflows8,
		OverflowCells: r.Stats.OverflowCells,
	}
	if r.WallSeconds > 0 {
		out.WallGCUPS = float64(r.Stats.Cells) / r.WallSeconds / 1e9
	}
	for i, h := range r.Hits {
		out.Hits[i] = Hit{Index: h.SeqIndex, ID: h.ID, Score: int(h.Score)}
		if frames != nil {
			out.Hits[i].Frame = frames[h.Query].Index
		}
	}
	return out
}
