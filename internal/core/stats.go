package core

// Stats aggregates the structural operation counts of kernel execution.
// Counts are architecture-neutral facts about the computation (how many
// vector iterations, how many profile builds, how many cells were useful
// work versus padding). Outside this package Cells divides wall time into
// wall GCUPS, and Overflows, Overflows8 and OverflowCells become the
// public result's ladder counts (the shard wire, /healthz "ladder",
// swsearch's overflow line); the other counts are read by this package's
// tests only. No device model reads them: the planner prices a search
// from the database's shape, not from an executed search's counts.
type Stats struct {
	// Cells counts useful cell updates: query length times true database
	// residues. This is the numerator of GCUPS.
	Cells int64
	// PaddedCells counts all cell updates performed, including lane
	// padding; the gap to Cells is packing waste.
	PaddedCells int64
	// VecIters counts inner-loop iterations: rows times columns of every
	// lane group (a one-lane group's are its cells).
	VecIters int64
	// Columns counts database-column passes (outer-loop iterations).
	Columns int64
	// SPBuilds counts score-profile row constructions (one per column of
	// every 16-bit group; each builds TableWidth lane vectors). Byte-lane
	// groups never build score rows.
	SPBuilds int64
	// Gathers counts indexed score loads: one per inner iteration of every
	// byte-lane group, whose scores are looked up in the query profile.
	Gathers int64
	// Groups counts lane groups processed.
	Groups int64
	// Alignments counts database sequences aligned.
	Alignments int64
	// Overflows counts lanes whose 16-bit score saturated and were
	// recomputed in 32 bits — the top escalation of the precision ladder,
	// reached from either the 16-bit first pass or a ladder lane that
	// already escalated once.
	Overflows int64
	// Overflows8 counts lanes whose 8-bit first pass saturated and were
	// recomputed at 16 bits (only the Prec8 ladder produces these). Long
	// subjects never count here: the intra-task kernel starts at 16 bits
	// whatever the search's first-pass precision.
	Overflows8 int64
	// Safe8Groups counts lane groups whose score upper bound provably fits
	// below the byte rail (a cell of 255), so the 8-bit pass skipped
	// saturation detection.
	Safe8Groups int64
	// OverflowCells counts the extra cell updates spent on escalation
	// recomputations, across both ladder tiers.
	OverflowCells int64
	// IntraCells counts cell updates performed by the intra-task (striped)
	// kernel that handles extremely long database sequences. They are also
	// included in Cells.
	IntraCells int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cells += other.Cells
	s.PaddedCells += other.PaddedCells
	s.VecIters += other.VecIters
	s.Columns += other.Columns
	s.SPBuilds += other.SPBuilds
	s.Gathers += other.Gathers
	s.Groups += other.Groups
	s.Alignments += other.Alignments
	s.Overflows += other.Overflows
	s.Overflows8 += other.Overflows8
	s.Safe8Groups += other.Safe8Groups
	s.OverflowCells += other.OverflowCells
	s.IntraCells += other.IntraCells
}
