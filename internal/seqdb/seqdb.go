// Package seqdb implements the reference-database side of the search
// engine: loading, the length-sorting pre-processing step the paper applies
// before scheduling (step 2 of Algorithm 1), packing sequences into
// SIMD lane groups for the inter-task kernels, and the static database
// split between host and coprocessor used by the heterogeneous version
// (step 2 of Algorithm 2).
package seqdb

import (
	"fmt"
	"sort"

	"heterosw/internal/alphabet"
	"heterosw/internal/sequence"
)

// Database is an immutable, optionally length-sorted collection of target
// sequences. The sort order is kept as a permutation so hit reporting can
// refer back to the caller's sequence order.
type Database struct {
	seqs   []*sequence.Sequence
	order  []int // processing order: indices into seqs
	sorted bool
	alpha  *alphabet.Alphabet

	totalResidues int64
	maxLen        int

	// key is a content-identity fingerprint for index-backed databases
	// (and their derived shards): two databases with the same non-empty
	// key hold identical sequences in identical order, so per-database
	// pre-processing (engines, lane packings) can be shared between them.
	// Empty for ad-hoc databases, whose identity is their pointer.
	key string
}

// New builds a database over seqs. When sortByLength is true the processing
// order is shortest-first, the optimisation the paper adopts from [14] so
// that consecutive alignment operations take similar time and lane groups
// waste little padding. (Ascending order also keeps the geometrically
// shrinking chunks of OpenMP guided scheduling balanced, which is why the
// paper finds guided only slightly behind dynamic.) seqs is not copied and
// must not be mutated; a nil slice builds a valid empty database.
func New(seqs []*sequence.Sequence, sortByLength bool) *Database {
	db := &Database{
		seqs:   seqs,
		order:  make([]int, len(seqs)),
		sorted: sortByLength,
		alpha:  alphaOf(seqs),
	}
	for i, s := range seqs {
		db.order[i] = i
		db.totalResidues += int64(s.Len())
		if s.Len() > db.maxLen {
			db.maxLen = s.Len()
		}
	}
	if sortByLength {
		sort.SliceStable(db.order, func(a, b int) bool {
			return seqs[db.order[a]].Len() < seqs[db.order[b]].Len()
		})
	}
	return db
}

// Restore rebuilds a database from already-preprocessed parts: sequences in
// caller order plus the processing-order permutation, skipping New's
// length sort. This is the O(n) construction path of the on-disk index
// loader — the permutation was computed once at build time by the exact
// sort New performs, so loading pays neither the parse nor the sort.
// key, when non-empty, records the content identity (see Key). order is
// not copied and must not be mutated.
func Restore(seqs []*sequence.Sequence, order []int, sorted bool, key string) (*Database, error) {
	if len(order) != len(seqs) {
		return nil, fmt.Errorf("seqdb: %d order entries for %d sequences", len(order), len(seqs))
	}
	db := &Database{seqs: seqs, order: order, sorted: sorted, key: key, alpha: alphaOf(seqs)}
	seen := make([]bool, len(seqs))
	for _, si := range order {
		if si < 0 || si >= len(seqs) || seen[si] {
			return nil, fmt.Errorf("seqdb: order is not a permutation of [0,%d)", len(seqs))
		}
		seen[si] = true
	}
	for _, s := range seqs {
		db.totalResidues += int64(s.Len())
		if s.Len() > db.maxLen {
			db.maxLen = s.Len()
		}
	}
	return db, nil
}

// alphaOf derives a sequence set's alphabet: the first sequence's, with an
// empty set defaulting to protein. Mixed-alphabet sets are a construction
// error caught here rather than as garbage scores in the kernels.
func alphaOf(seqs []*sequence.Sequence) *alphabet.Alphabet {
	if len(seqs) == 0 {
		return alphabet.Protein
	}
	a := seqs[0].Alphabet()
	for _, s := range seqs[1:] {
		if s.Alphabet() != a {
			panic(fmt.Sprintf("seqdb: mixed alphabets: %s holds %s residues in a %s database",
				s.ID, s.Alphabet().Name(), a.Name()))
		}
	}
	return a
}

// Len returns the number of sequences.
func (db *Database) Len() int { return len(db.seqs) }

// Alphabet returns the alphabet every member sequence is encoded under.
func (db *Database) Alphabet() *alphabet.Alphabet { return db.alpha }

// Key returns the database's content-identity fingerprint: non-empty for
// index-backed databases and shards derived from them, where equal keys
// guarantee identical sequences in identical order. Per-database caches
// (backend engines) use it to share pre-processing across distinct Database
// values loaded or split from the same on-disk index.
func (db *Database) Key() string { return db.key }

// Order returns a copy of the processing order: Order()[i] is the caller
// index of the i-th sequence processed. The index writer persists it so
// loading can restore the length sort without re-sorting.
func (db *Database) Order() []int { return append([]int(nil), db.order...) }

// Seq returns the sequence with the caller-visible index i (original
// order).
func (db *Database) Seq(i int) *sequence.Sequence { return db.seqs[i] }

// Sorted reports whether the processing order is length-sorted.
func (db *Database) Sorted() bool { return db.sorted }

// Residues returns the total residue count, the denominator scale of the
// GCUPS metric.
func (db *Database) Residues() int64 { return db.totalResidues }

// MaxLen returns the longest sequence length.
func (db *Database) MaxLen() int { return db.maxLen }

// MeanLen returns the mean sequence length.
func (db *Database) MeanLen() float64 {
	if len(db.seqs) == 0 {
		return 0
	}
	return float64(db.totalResidues) / float64(len(db.seqs))
}

// String summarises the database.
func (db *Database) String() string {
	return fmt.Sprintf("seqdb: %d sequences, %d residues, max length %d, sorted=%v",
		db.Len(), db.totalResidues, db.maxLen, db.sorted)
}

// LaneGroup packs up to Lanes database sequences for simultaneous
// alignment by the inter-task kernels. Residues are interleaved
// column-major: Interleaved[j*Lanes+l] is residue j of lane l, or the
// database alphabet's padding index (its Size) beyond lane l's true length.
type LaneGroup struct {
	// Lanes is the SIMD width the group was packed for.
	Lanes int
	// Width is the padded column count: the longest member's length.
	Width int
	// SeqIdx maps lanes to database sequence indices (original order);
	// -1 marks an empty padding lane.
	SeqIdx []int
	// Lens holds each lane's true length (0 for empty lanes).
	Lens []int
	// Interleaved is the Width x Lanes residue-index matrix.
	Interleaved []uint8
	// Residues is the sum of true lane lengths: the useful cells per
	// query residue this group contributes.
	Residues int64
}

// Groups packs the whole database processing order into lane groups of the
// given width (no long-sequence routing). With a length-sorted database,
// members of a group have nearly equal lengths and padding waste is
// minimal; unsorted packing is supported to reproduce the paper's
// motivation for pre-sorting.
func (db *Database) Groups(lanes int) []*LaneGroup {
	groups, _ := db.Partition(lanes, 0)
	return groups
}

// Partition splits the processing order into inter-task lane groups and a
// list of long sequences (length > longThreshold, database indices in
// caller order) destined for the intra-task kernel. longThreshold <= 0
// disables routing and packs everything into groups.
func (db *Database) Partition(lanes, longThreshold int) ([]*LaneGroup, []int) {
	if lanes < 1 {
		panic(fmt.Sprintf("seqdb: invalid lane count %d", lanes))
	}
	order := db.order
	var long []int
	if longThreshold > 0 {
		short := make([]int, 0, len(order))
		for _, idx := range order {
			if db.seqs[idx].Len() > longThreshold {
				long = append(long, idx)
			} else {
				short = append(short, idx)
			}
		}
		order = short
	}
	n := len(order)
	groups := make([]*LaneGroup, 0, (n+lanes-1)/lanes)
	for start := 0; start < n; start += lanes {
		end := start + lanes
		if end > n {
			end = n
		}
		g := &LaneGroup{
			Lanes:  lanes,
			SeqIdx: make([]int, lanes),
			Lens:   make([]int, lanes),
		}
		for l := 0; l < lanes; l++ {
			g.SeqIdx[l] = -1
		}
		for l, oi := start, 0; l < end; l, oi = l+1, oi+1 {
			idx := order[l]
			s := db.seqs[idx]
			g.SeqIdx[oi] = idx
			g.Lens[oi] = s.Len()
			g.Residues += int64(s.Len())
			if s.Len() > g.Width {
				g.Width = s.Len()
			}
		}
		g.Interleaved = make([]uint8, g.Width*lanes)
		pad := uint8(db.alpha.Size())
		for i := range g.Interleaved {
			g.Interleaved[i] = pad
		}
		for oi := 0; oi < end-start; oi++ {
			res := db.seqs[g.SeqIdx[oi]].Residues
			for j, c := range res {
				g.Interleaved[j*lanes+oi] = uint8(c)
			}
		}
		groups = append(groups, g)
	}
	return groups, long
}

// PaddedCells returns Width*Lanes, the cell updates per query residue the
// kernels actually perform for this group (including padding waste).
func (g *LaneGroup) PaddedCells() int64 { return int64(g.Width) * int64(g.Lanes) }

// PaddingEfficiency summarises packing quality over groups: the ratio of
// useful residues to padded residues (1.0 = no waste).
func PaddingEfficiency(groups []*LaneGroup) float64 {
	var useful, padded int64
	for _, g := range groups {
		useful += g.Residues
		padded += g.PaddedCells()
	}
	if padded == 0 {
		return 1
	}
	return float64(useful) / float64(padded)
}

// DealGreedy deals items with the given lengths (in input order) into
// len(fracs) parts holding approximately the requested residue fractions:
// each item goes to the eligible part furthest below its residue target —
// argmin res[i]/frac[i], compared by cross-multiplication, ties to the
// lowest index (for N=2 this reproduces the original two-way deal
// exactly). The fractions are ratios and need not sum to 1; non-positive
// fractions yield empty parts (all non-positive falls back to equal
// shares). The return value lists each part's input positions, and is the
// single deal used by SplitN (over materialised sequences) and
// SplitLengthsN (over bare lengths), so the shape-level planner can never
// diverge from the materialised split.
func DealGreedy(lengths []int, fracs []float64) [][]int {
	n := len(fracs)
	if n == 0 {
		return nil
	}
	f := make([]float64, n)
	any := false
	for i, v := range fracs {
		if v > 0 {
			f[i] = v
			any = true
		}
	}
	if !any {
		for i := range f {
			f[i] = 1
		}
	}
	parts := make([][]int, n)
	res := make([]int64, n)
	for pos, l := range lengths {
		best := -1
		for i := 0; i < n; i++ {
			if f[i] <= 0 {
				continue
			}
			if best < 0 || float64(res[i])*f[best] < float64(res[best])*f[i] {
				best = i
			}
		}
		parts[best] = append(parts[best], pos)
		res[best] += int64(l)
	}
	return parts
}

// SplitN partitions the database into N shards: fracs[i] is the target
// residue fraction of shard i. Sequences are dealt greedily in processing order
// (see DealGreedy), so every shard inherits the full length distribution —
// the static workload distribution of Algorithm 2 extended to an N-device
// cluster.
//
// The second return value maps shard-local sequence indices back to the
// parent: parent index = idx[i][j] for shard i's j-th sequence.
func (db *Database) SplitN(fracs []float64) ([]*Database, [][]int) {
	parts := DealGreedy(db.OrderLengths(), fracs)
	seqs := make([][]*sequence.Sequence, len(fracs))
	idx := make([][]int, len(fracs))
	for i, positions := range parts {
		for _, p := range positions {
			si := db.order[p]
			seqs[i] = append(seqs[i], db.seqs[si])
			idx[i] = append(idx[i], si)
		}
	}
	out := make([]*Database, len(fracs))
	for i := range out {
		out[i] = New(seqs[i], db.sorted)
		if db.key != "" {
			// The deal is deterministic in (key, fracs), so the child key
			// identifies the shard's exact content — a rebuilt split of the
			// same index reuses the shard's cached engines. %x encodes each
			// fraction exactly (hex float), so fracs that differ anywhere in
			// their 64 bits can never collide onto one shard key.
			out[i].key = fmt.Sprintf("%s|split%x#%d", db.key, fracs, i)
		}
	}
	return out, idx
}

// Select builds a database over the parent sequences at the given caller
// indices, in the given order, with an explicit content key. It is the
// coordinator-side mirror of a shard cut: replaying a shard manifest's
// parent-index list through Select (with the shard's checksum key)
// reconstructs a database whose caller order, processing order and key all
// match the shard index a remote node loaded from disk, so per-sequence
// results computed remotely merge back into parent order exactly. The
// sequences are shared, not copied.
func (db *Database) Select(indices []int, key string) (*Database, error) {
	seqs := make([]*sequence.Sequence, len(indices))
	for i, si := range indices {
		if si < 0 || si >= len(db.seqs) {
			return nil, fmt.Errorf("seqdb: select index %d outside [0,%d)", si, len(db.seqs))
		}
		seqs[i] = db.seqs[si]
	}
	out := New(seqs, db.sorted)
	out.key = key
	return out, nil
}

// OrderLengths returns the sequence lengths in processing order.
func (db *Database) OrderLengths() []int {
	out := make([]int, len(db.order))
	for i, si := range db.order {
		out[i] = db.seqs[si].Len()
	}
	return out
}
