package heterosw

import (
	"heterosw/internal/core"
	"heterosw/internal/seqdb"
)

// Database is an indexed collection of target sequences ready for
// searching. Build one with NewDatabase, ReadFASTA + NewDatabase, or
// SyntheticSwissProt, and search it through a Cluster (NewCluster), whose
// engine caches the lane packings so repeated searches amortise
// pre-processing exactly as the paper's step 2 does. A Database is
// immutable and safe for concurrent use.
type Database struct {
	db *seqdb.Database
}

// NewDatabase indexes sequences with the paper's pre-processing: the
// processing order is sorted by length so lane groups pack tightly and
// scheduling stays balanced.
func NewDatabase(seqs []Sequence) (*Database, error) {
	return newDatabase(seqs, true)
}

// NewDatabaseUnsorted indexes sequences without the length-sorting
// pre-processing, reproducing the paper's motivation for sorting (padding
// waste and load imbalance). Intended for ablation studies.
func NewDatabaseUnsorted(seqs []Sequence) (*Database, error) {
	return newDatabase(seqs, false)
}

func newDatabase(seqs []Sequence, sorted bool) (*Database, error) {
	raw, err := unwrapSeqs(seqs)
	if err != nil {
		return nil, err
	}
	return &Database{db: seqdb.New(raw, sorted)}, nil
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
// Gumbel null model of its search (see Result.FitSignificance).
type HitSignificance struct {
	// BitScore is the raw score on the fitted model's bit scale; EValue
	// the expected number of equal-or-better chance hits in a database of
	// this size. E-values well below 1 indicate likely homology.
	BitScore float64
	EValue   float64
}

// Result reports a database search.
type Result struct {
	// Hits is sorted by descending score (the paper's step 4), truncated
	// to TopK when requested.
	Hits []Hit
	// Scores holds every subject's score in database order: the list the
	// engine produced, not a copy.
	Scores []int32
	// Cells is the number of dynamic-programming cell updates (the GCUPS
	// numerator).
	Cells int64
	// WallSeconds and WallGCUPS report the execution on the host. (What
	// the search would take on the modelled devices is Cluster.Plan's
	// answer.)
	WallSeconds float64
	WallGCUPS   float64
	// Overflows counts 16-bit lane saturations escalated to 32-bit
	// recomputation — the ladder's top tier, reached from the 16-bit first
	// pass or from an already-escalated 8-bit lane.
	Overflows int64
	// Overflows8 counts 8-bit first-pass saturations escalated to the
	// 16-bit lane pass. Searches start in byte lanes wherever the matrix
	// allows, so every subject scoring above some 250 counts here.
	Overflows8 int64
	// OverflowCells counts the cell updates the escalations recomputed,
	// across both tiers.
	OverflowCells int64
}

func wrapResult(r *core.Result) *Result {
	out := &Result{
		Hits:          make([]Hit, len(r.Hits)),
		Scores:        r.Scores,
		Cells:         r.Stats.Cells,
		WallSeconds:   r.WallSeconds,
		WallGCUPS:     r.WallGCUPS,
		Overflows:     r.Stats.Overflows,
		Overflows8:    r.Stats.Overflows8,
		OverflowCells: r.Stats.OverflowCells,
	}
	for i, h := range r.Hits {
		out.Hits[i] = Hit{Index: h.SeqIndex, ID: h.ID, Score: int(h.Score)}
	}
	return out
}
