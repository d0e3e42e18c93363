package core

// Stats counts what a search's kernels computed: the cells, which divide
// wall time into wall GCUPS, and the precision ladder's escalations, which
// become the public result's ladder counts (the shard wire, /healthz
// "ladder", swsearch's overflow line).
type Stats struct {
	// Cells counts useful cell updates: query length times true database
	// residues. This is the numerator of GCUPS.
	Cells int64
	// Overflows counts lanes whose 16-bit score saturated and were
	// recomputed in 32 bits — the top escalation of the precision ladder,
	// reached from either the 16-bit first pass or a ladder lane that
	// already escalated once.
	Overflows int64
	// Overflows8 counts lanes whose 8-bit first pass saturated and were
	// recomputed at 16 bits. Long subjects never count here: the
	// intra-task kernel starts at 16 bits whatever the search's first
	// rung.
	Overflows8 int64
	// OverflowCells counts the extra cell updates spent on escalation
	// recomputations, across both ladder tiers.
	OverflowCells int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cells += other.Cells
	s.Overflows += other.Overflows
	s.Overflows8 += other.Overflows8
	s.OverflowCells += other.OverflowCells
}
