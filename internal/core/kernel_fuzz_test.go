package core

import (
	"bytes"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
	"heterosw/internal/vec"
)

// Caps bounding one fuzz execution: large enough to cross the int16
// saturation ceiling (a tryptophan self-alignment needs ~3000 residues at
// 11 points per column) and to exercise multi-group lane packings, small
// enough that one input stays well under a second across all kernels.
const (
	fuzzMaxQuery  = 3200
	fuzzMaxSeqLen = 3200
	fuzzMaxDBRes  = 6400
	fuzzMaxSeqs   = 64
)

// fuzzLadderMaxCells bounds the inputs that additionally start the ladder
// in byte lanes. A fully saturating input pays up to three full passes per
// subject (8, 16 and 32 bits), so running the ladder on the 3000-residue
// int16-saturation seed would triple that seed's cost and trip the fuzz
// engine's per-input hang budget under coverage instrumentation. Every
// byte-rail boundary lives at scores of a few hundred — a few dozen
// residues — so the cap loses no 8-bit coverage; the giant-input ladder
// chain is pinned deterministically by TestLadderEscalationTiers instead.
const fuzzLadderMaxCells = 2_000_000

// fuzzSeqDelim separates database sequences in the raw fuzz input.
const fuzzSeqDelim = 0xFF

// fuzzResiduesAlpha maps raw fuzz bytes onto an alphabet's code space.
func fuzzResiduesAlpha(raw []byte, max int, alpha *alphabet.Alphabet) []alphabet.Code {
	if len(raw) > max {
		raw = raw[:max]
	}
	out := make([]alphabet.Code, len(raw))
	for i, b := range raw {
		out[i] = alphabet.Code(int(b) % alpha.Size())
	}
	return out
}

// fuzzResidues maps raw fuzz bytes onto the 24-letter protein alphabet.
func fuzzResidues(raw []byte, max int) []alphabet.Code {
	return fuzzResiduesAlpha(raw, max, alphabet.Protein)
}

// fuzzSequence builds an internal sequence from residue codes via the
// ASCII round trip, so the input goes through the same constructor real
// data does.
func fuzzSequence(id string, codes []alphabet.Code, alpha *alphabet.Alphabet) *sequence.Sequence {
	return sequence.FromStringAlpha(id, string(alpha.DecodeAll(codes)), alpha)
}

// fuzzDatabase splits the raw bytes into database sequences on the
// delimiter byte, applying the corpus caps.
func fuzzDatabase(raw []byte, sorted bool, alpha *alphabet.Alphabet) *seqdb.Database {
	var seqs []*sequence.Sequence
	var total int
	for _, chunk := range bytes.Split(raw, []byte{fuzzSeqDelim}) {
		if len(chunk) == 0 {
			continue
		}
		codes := fuzzResiduesAlpha(chunk, fuzzMaxSeqLen, alpha)
		if total+len(codes) > fuzzMaxDBRes {
			codes = codes[:fuzzMaxDBRes-total]
			if len(codes) == 0 {
				break
			}
		}
		total += len(codes)
		seqs = append(seqs, fuzzSequence("s", codes, alpha))
		if len(seqs) >= fuzzMaxSeqs || total >= fuzzMaxDBRes {
			break
		}
	}
	if len(seqs) == 0 {
		return nil
	}
	return seqdb.New(seqs, sorted)
}

// FuzzKernelParity drives random queries and databases through every
// scoring path — the precision ladder as AlignGroup runs it and from both
// its first rungs (byte lanes with saturated lanes re-packed for the 16-bit
// rung, and the 16-bit pass with 32-bit overflow escalation), and the
// long-subject kernel (Farrar's striped layout over the fused column step,
// 32-bit scalar recomputation on saturation) — under every vec tier, and
// requires bit-identical scores against the swalign oracle. The seed
// corpus covers the int16 saturation boundary,
// 1-residue sequences on both sides, lane-count edges (one sequence more
// than a full lane group) and zero gap penalties (the lazy-F worst case).
func FuzzKernelParity(f *testing.F) {
	w := byte(17) // 'W', the highest-scoring self-match in BLOSUM62
	wRun := bytes.Repeat([]byte{w}, 3000)
	lane33 := bytes.Repeat([]byte{w, fuzzSeqDelim}, 33)
	// penSel packs gap penalties: low nibble opens, high nibble extends.
	paperPens := uint8(10 | 2<<4)
	f.Add([]byte("MKWVLA"), []byte("MKWVLA\xffCCQEGHIL\xffW"), uint8(2), paperPens, uint8(1))
	f.Add([]byte{w}, []byte{w}, uint8(0), paperPens, uint8(0))                                     // 1-residue pair
	f.Add(wRun, wRun, uint8(4), paperPens, uint8(1))                                               // int16 saturation
	f.Add([]byte{w}, wRun, uint8(6), paperPens, uint8(0))                                          // 1-residue query, long subject
	f.Add(wRun[:64], lane33, uint8(6), paperPens, uint8(2))                                        // 33 sequences across 32 lanes
	f.Add([]byte("ARNDARND"), []byte("ARND\xffRNDA\xffNDAR"), uint8(3), uint8(0), uint8(0))        // zero gap penalties
	f.Add([]byte{}, []byte("ARND"), uint8(1), paperPens, uint8(3))                                 // empty query
	f.Add([]byte("AAAA"), bytes.Repeat([]byte{0, fuzzSeqDelim}, 40), uint8(7), uint8(5), uint8(7)) // many tiny sequences, 64 lanes

	// int8-saturation seeds for the 8-bit ladder: W self-alignments score
	// 11/residue, so these straddle 127 (121 vs 132) and the rail the byte
	// rung used to have, 255-bias = 251 (242 vs 253); the seeds after the
	// gapped homologs pin today's rail, 255. Zero penalties keep saturated H plateaus alive through
	// padding, and a 1-residue pair against a saturating neighbour pins
	// per-lane (not per-group) escalation.
	w11, w12 := bytes.Repeat([]byte{w}, 11), bytes.Repeat([]byte{w}, 12)
	w22, w23 := bytes.Repeat([]byte{w}, 22), bytes.Repeat([]byte{w}, 23)
	type railSeed struct {
		q, db                    []byte
		lanesSel, pens, blockSel uint8
	}
	railSeeds := []railSeed{
		{w11, append(append([]byte{}, w11...), append([]byte{fuzzSeqDelim}, w12...)...), 4, paperPens, 0}, // straddles 127
		{w12, w12, 0, paperPens, 1}, // just over 127
		{w23, append(append([]byte{}, w22...), append([]byte{fuzzSeqDelim}, w23...)...), 4, paperPens, 2}, // straddles 255-bias
		{w23, w23, 2, 0, 0}, // 8-bit rail, zero penalties
		{w23, append(append([]byte{}, w23...), fuzzSeqDelim, w), 1, paperPens, 0}, // saturating lane beside a 1-residue lane
		{wRun[:256], wRun[:256], 6, 0, 3},                                         // deep zero-penalty plateau over the rail
	}
	for _, sd := range railSeeds {
		f.Add(sd.q, sd.db, sd.lanesSel, sd.pens, sd.blockSel)
	}

	// Backend-dispatch edges: the native column kernels only engage on full
	// 16-lane (int16) / 32-lane (uint8) groups, so sequence counts
	// one past a group boundary exercise the mixed native-group +
	// portable-tail packing, and a saturating lane inside an odd tail pins
	// the rails on both sides of the dispatch split.
	lane17 := bytes.Repeat([]byte{w, fuzzSeqDelim}, 17) // one past a 16-lane group
	f.Add(wRun[:48], lane17, uint8(6), paperPens, uint8(1))
	f.Add(w23, append(bytes.Repeat([]byte{w, fuzzSeqDelim}, 32), w23...), uint8(7), paperPens, uint8(2)) // 33 lanes, saturating tail lane
	f.Add(wRun[:128], bytes.Repeat([]byte{w, fuzzSeqDelim}, 31), uint8(7), uint8(0), uint8(0))           // 31 lanes: just under the u8 group width

	// High-identity databases for the re-packed 16-bit rung: some twenty
	// near-copies of the query saturate their byte lanes together, so the
	// escalation queue fills whole groups and leaves a remainder, across
	// byte groups of 32 and 64 lanes and odd widths, with small tiles.
	homolog := []byte("MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPFDEHVK")
	var family []byte
	for i := 0; i < 21; i++ {
		member := append([]byte{}, homolog[i%5:]...)
		member[7+i] = w
		member[(11*i)%len(member)] = byte(i)
		family = append(append(family, member...), fuzzSeqDelim)
	}
	f.Add(homolog, family, uint8(6), paperPens, uint8(0))                                                      // 21 saturating lanes of 32
	f.Add(homolog, append(append([]byte{}, family...), lane33...), uint8(7), paperPens, uint8(5))              // 64 lanes, saturating and tiny lanes mixed, 7-row tiles
	f.Add(homolog, append(bytes.Repeat([]byte{w, fuzzSeqDelim}, 16), family...), uint8(2), uint8(0), uint8(3)) // 3 lanes: one saturation per group trickles into the queue

	f.Add(homolog[:64], family, uint8(6), paperPens, uint8(7)) // the query is exactly one 64-row tile
	f.Add(homolog[:8], family, uint8(7), paperPens, uint8(5))  // one 7-row tile and a one-row last tile

	// The byte-rail seeds again in 64-lane groups (lanesSel 7): one zmm
	// register of the avx2+vbmi tier's byte kernel, the width the host
	// packs its groups for there.
	for _, sd := range railSeeds {
		f.Add(sd.q, sd.db, uint8(7), sd.pens, sd.blockSel)
	}
	// Gapped homologs under the byte rail, in 64-lane groups: a 3-residue
	// deletion and a 3-residue insertion in the middle of the query, so
	// the best alignments extend a vertical (F) and a horizontal (E) gap.
	gapped := append(append(append([]byte{}, homolog[:12]...), homolog[15:30]...), fuzzSeqDelim)
	gapped = append(append(append(gapped, homolog[:12]...), 'P', 'P', 'P'), homolog[12:30]...)
	f.Add(homolog[:30], gapped, uint8(7), paperPens, uint8(0))

	// The byte rail itself, a cell of 255, in 64-lane groups: against a W
	// run, W23 then F (code 13) scores 254 and stays in bytes, W23 then Y
	// (code 18) scores 255 and escalates, untiled and in 7-row tiles. The
	// DNA leg takes the same bytes as A and C (codes 0 and 1) under +2/-3:
	// A127 scores 254, and A66 C A63 scores 2*129-3 = 255 though neither of
	// its halves reaches 133.
	w30 := bytes.Repeat([]byte{w}, 30)
	railPair := append(append(append(append([]byte{}, w23...), 13, fuzzSeqDelim), w23...), 18)
	f.Add(w30, railPair, uint8(7), paperPens, uint8(0))
	f.Add(w30, append(append(railPair, fuzzSeqDelim), w30...), uint8(7), paperPens, uint8(5))
	a := func(n int) []byte { return make([]byte, n) }
	dnaPair := append(append(append(append(a(127), fuzzSeqDelim), a(66)...), 1), a(63)...)
	f.Add(a(130), dnaPair, uint8(7), paperPens, uint8(0))
	f.Add(a(130), dnaPair, uint8(7), paperPens, uint8(5))

	lanesTable := []int{1, 2, 3, 4, 8, 16, 32, 64}
	blockTable := []int{0, 1, 7, 64}

	f.Fuzz(func(t *testing.T, qRaw, dbRaw []byte, lanesSel, penSel, blockSel uint8) {
		query := fuzzResidues(qRaw, fuzzMaxQuery)
		db := fuzzDatabase(dbRaw, lanesSel&1 == 0, alphabet.Protein)
		if db == nil {
			return
		}
		lanes := lanesTable[int(lanesSel)%len(lanesTable)]
		p := Params{
			GapOpen:   int(penSel & 0x0F),
			GapExtend: int(penSel >> 4),
			Blocked:   blockSel&1 == 1,
			BlockRows: blockTable[int(blockSel>>1)%len(blockTable)],
		}
		sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: p.GapOpen, GapExtend: p.GapExtend}
		qp := profile.NewQuery(query, submat.BLOSUM62)

		want := make([]int32, db.Len())
		for i := 0; i < db.Len(); i++ {
			want[i] = int32(swalign.Score(query, db.Seq(i).Residues, sc))
		}
		check := func(kernel string, got []int32) {
			t.Helper()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s (lanes=%d, q=%daa, penalties %d/%d, blocked=%v/%d): seq %d (%daa) scored %d, oracle %d",
						kernel, lanes, len(query), p.GapOpen, p.GapExtend, p.Blocked, p.BlockRows,
						i, db.Seq(i).Len(), got[i], want[i])
				}
			}
		}

		ladderOK := int64(len(query))*db.Residues() <= fuzzLadderMaxCells
		// The ladder three ways: as AlignGroup runs it (byte lanes only at
		// whole byte registers), and forced to start at the 16-bit rung or in
		// byte lanes at every lane width, saturated byte lanes deferred as the
		// engine defers them.
		const (
			viaGroup = iota
			from16
			from8
		)
		runSpec := func(db *seqdb.Database, qp *profile.Query, spec int) (string, []int32) {
			switch spec {
			case viaGroup:
				got, _ := runVariantQuiet(db, qp, p, lanes)
				return "AlignGroup", got
			case from8:
				got, _ := runRung(db, qp, p, lanes, true)
				return "ladder from 8 bits", got
			}
			got, _ := runRung(db, qp, p, lanes, false)
			return "ladder from 16 bits", got
		}
		runSpecs := func(tag string) {
			for _, spec := range []int{viaGroup, from16, from8} {
				if spec == from8 && !ladderOK {
					continue
				}
				name, got := runSpec(db, qp, spec)
				check(name+tag, got)
			}
		}
		// Every input pins every tier the host runs == oracle: the highest,
		// then the vpshufb byte lookup where the host runs vpermb, then the
		// portable loops.
		tiers := vec.Tiers()
		for i := len(tiers) - 1; i >= 0; i-- {
			prev := vec.CapTier(tiers[i])
			runSpecs(" [" + tiers[i].String() + "]")
			vec.CapTier(prev)
		}

		// The long-subject kernel, on every database sequence whatever its
		// length, under every tier.
		long := make([]int32, db.Len())
		for _, tr := range tiers {
			prev := vec.CapTier(tr)
			buf := NewBuffers(stripedLanes)
			for i := range long {
				var st Stats
				long[i] = alignPairStriped(qp, db.Seq(i).Residues, p, buf, &st)
			}
			check("long-striped ["+tr.String()+"]", long)
			vec.CapTier(prev)
		}

		// DNA leg: the same raw input mapped onto the 15-letter IUPAC
		// nucleotide alphabet and scored with the NUC match/mismatch matrix
		// against the oracle — pins that no kernel, profile or packing path
		// still assumes the 24-letter protein table.
		dnaQuery := fuzzResiduesAlpha(qRaw, fuzzMaxQuery, alphabet.DNA)
		dnaDB := fuzzDatabase(dbRaw, lanesSel&1 == 0, alphabet.DNA)
		if dnaDB != nil {
			dsc := swalign.Scoring{Matrix: submat.NUC, GapOpen: p.GapOpen, GapExtend: p.GapExtend}
			dqp := profile.NewQuery(dnaQuery, submat.NUC)
			dwant := make([]int32, dnaDB.Len())
			for i := 0; i < dnaDB.Len(); i++ {
				dwant[i] = int32(swalign.Score(dnaQuery, dnaDB.Seq(i).Residues, dsc))
			}
			for _, spec := range []int{viaGroup, from16, from8} {
				if spec == from8 && !ladderOK {
					continue
				}
				// The byte rung again under every tier: the DNA profile is
				// the 16-wide table of the in-register lookup.
				over := tiers[len(tiers)-1:]
				if spec == from8 {
					over = tiers
				}
				for _, tr := range over {
					prev := vec.CapTier(tr)
					name, got := runSpec(dnaDB, dqp, spec)
					vec.CapTier(prev)
					for i := range dwant {
						if got[i] != dwant[i] {
							t.Fatalf("dna %s [%v] (lanes=%d, q=%dnt, penalties %d/%d): seq %d (%dnt) scored %d, oracle %d",
								name, tr, lanes, len(dnaQuery), p.GapOpen, p.GapExtend,
								i, dnaDB.Seq(i).Len(), got[i], dwant[i])
						}
					}
				}
			}
		}
	})
}
