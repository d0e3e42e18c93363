package heterosw

// Benchmark harness: one benchmark per figure/table of the paper's
// evaluation (regenerating its series through the simulated devices and
// reporting the headline number as a custom metric), plus functional
// microbenchmarks of every kernel variant measuring real pure-Go cell
// throughput on the host.
//
// Figure benchmarks run the simulation at 1/20 of Swiss-Prot scale per
// iteration to keep -bench runs quick; cmd/swbench regenerates the same
// figures at full scale and prints the complete series.

import (
	"fmt"
	"math/rand"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/core"
	"heterosw/internal/datagen"
	"heterosw/internal/device"
	"heterosw/internal/figures"
	"heterosw/internal/profile"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
	"heterosw/internal/submat"
	"heterosw/internal/swalign"
	"heterosw/internal/vec"
)

const benchFigureScale = 0.05

// benchWorkload is shared by the figure benchmarks (building it is cheap
// but not free, and identical across iterations).
var benchWorkload = figures.NewWorkload(benchFigureScale)

func reportSeriesMax(b *testing.B, fig *figures.Figure, label string) {
	b.Helper()
	for _, s := range fig.Series {
		if s.Label != label {
			continue
		}
		best := 0.0
		for _, y := range s.Y {
			if y > best {
				best = y
			}
		}
		b.ReportMetric(best, "GCUPS")
		return
	}
	b.Fatalf("series %q not found", label)
}

// BenchmarkFig03XeonThreadScaling regenerates Figure 3 (Xeon, 6 variants,
// threads 1..32) and reports the intrinsic-SP peak.
func BenchmarkFig03XeonThreadScaling(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig3(benchWorkload)
	}
	reportSeriesMax(b, fig, "intrinsic-SP")
}

// BenchmarkFig04XeonQueryLength regenerates Figure 4 (Xeon @32T over the
// 20 query lengths).
func BenchmarkFig04XeonQueryLength(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig4(benchWorkload)
	}
	reportSeriesMax(b, fig, "intrinsic-SP")
}

// BenchmarkFig05PhiThreadScaling regenerates Figure 5 (Phi, 6 variants,
// threads 30..240).
func BenchmarkFig05PhiThreadScaling(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig5(benchWorkload)
	}
	reportSeriesMax(b, fig, "intrinsic-SP")
}

// BenchmarkFig06PhiQueryLength regenerates Figure 6 (Phi @240T over the 20
// query lengths).
func BenchmarkFig06PhiQueryLength(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig6(benchWorkload)
	}
	reportSeriesMax(b, fig, "intrinsic-SP")
}

// BenchmarkFig07Blocking regenerates Figure 7 (blocking vs non-blocking on
// both devices).
func BenchmarkFig07Blocking(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig7(benchWorkload)
	}
	reportSeriesMax(b, fig, "phi blocking")
}

// BenchmarkFig08HeteroSplit regenerates Figure 8 (the CPU/Phi workload-
// distribution sweep) and reports the hybrid peak.
func BenchmarkFig08HeteroSplit(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Fig8(benchWorkload)
	}
	reportSeriesMax(b, fig, "hetero intrinsic-SP")
}

// BenchmarkTableEfficiency regenerates the Section V.C.1 efficiency table
// and reports intrinsic-SP efficiency at 16 threads (paper: 0.88).
func BenchmarkTableEfficiency(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Efficiency(benchWorkload)
	}
	for _, s := range fig.Series {
		if s.Label == "intrinsic-SP" {
			for i, x := range s.X {
				if x == 16 {
					b.ReportMetric(s.Y[i], "efficiency@16T")
				}
			}
		}
	}
}

// BenchmarkAblationSchedule regenerates the scheduling-policy ablation
// (Section IV: dynamic > guided > static).
func BenchmarkAblationSchedule(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.SchedulePolicies(benchWorkload)
	}
	reportSeriesMax(b, fig, "sorted db")
}

// BenchmarkAblationPower regenerates the GCUPS/W extension of Figure 8.
func BenchmarkAblationPower(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Power(benchWorkload)
	}
	reportSeriesMax(b, fig, "hetero GCUPS/W")
}

// ---- Functional kernel microbenchmarks (real wall-clock throughput) ----

type kernelBench struct {
	qp     *profile.Query
	groups []*seqdb.LaneGroup
	long   []int
	db     *seqdb.Database
	params core.Params
	bufs   *core.Buffers
	cells  int64
}

func newKernelBench(b *testing.B, lanes int, blocked bool) *kernelBench {
	b.Helper()
	seqs := datagen.Generate(datagen.Config{Sequences: 256, Seed: 99, MeanLen: 355, MaxLen: 2000})
	db := seqdb.New(seqs, true)
	groups, long := db.Partition(lanes, 0)
	queries := datagen.GenerateQueries(7)
	q := profile.NewQuery(queries[4].Residues, submat.BLOSUM62) // 464 aa
	kb := &kernelBench{
		qp:     q,
		groups: groups,
		long:   long,
		db:     db,
		params: core.Params{Variant: core.IntrinsicSP, GapOpen: 10, GapExtend: 2, Blocked: blocked},
		bufs:   core.NewBuffers(lanes),
		cells:  int64(q.Len()) * db.Residues(),
	}
	return kb
}

func (kb *kernelBench) run(b *testing.B) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range kb.groups {
			core.AlignGroup(kb.qp, g, kb.params, kb.bufs)
		}
	}
	b.StopTimer()
	megaCells := float64(kb.cells) / 1e6
	b.ReportMetric(megaCells*float64(b.N)/b.Elapsed().Seconds(), "Mcells/s")
}

// The ladder over 16-lane groups starts at the 16-bit rung, over 32-lane
// groups in byte lanes.
func BenchmarkKernelIntrinsicSP(b *testing.B)        { newKernelBench(b, 16, false).run(b) }
func BenchmarkKernelIntrinsicSP32(b *testing.B)      { newKernelBench(b, 32, false).run(b) }
func BenchmarkKernelIntrinsicSPBlocked(b *testing.B) { newKernelBench(b, 16, true).run(b) }

// Portable-backend twin of the kernel microbenchmark: the identical
// workload with internal/vec's pure-Go loops forced. On an AVX2 host the
// pair measures the native backend's speedup directly; committed side by
// side in the benchmark artifact they let the wall-GCUPS gate catch a
// silently lost native backend (mis-detected CPU feature, broken
// dispatch) rather than only gross portable-loop regressions.
func BenchmarkKernelIntrinsicSPPortable(b *testing.B) {
	kb := newKernelBench(b, 16, false)
	defer vec.CapTier(vec.CapTier(vec.TierPortable))
	kb.run(b)
}

// Precision-ladder microbenchmark: the 8-bit first pass vs the 16-bit
// pass over short-sequence lane groups — the packing the ladder exists
// for, since a length-sorted protein database is dominated by subjects
// whose scores provably fit a byte. The lane width picks the rung, as it
// does in a search: 32-lane groups start in byte lanes, 16-lane groups at
// 16 bits. Wall Mcells/s reports the host throughput; sim-GCUPS is the
// deterministic device-model number the regression gate compares (byte
// lanes halve the group count per residue, so the model shows the ~2x the
// real hardware trick delivers).
func benchLadder(b *testing.B, lanes int) {
	seqs := datagen.Generate(datagen.Config{Sequences: 512, Seed: 42, MeanLen: 120, MaxLen: 240})
	db := seqdb.New(seqs, true)
	dev := device.Xeon()
	params := core.Params{Variant: core.IntrinsicSP, GapOpen: 10, GapExtend: 2, Blocked: true}
	groups, _ := db.Partition(lanes, 0)
	q := profile.NewQuery(datagen.GenerateQueries(7)[2].Residues, submat.BLOSUM62) // 222 aa
	bufs := core.NewBuffers(lanes)
	cells := int64(q.Len()) * db.Residues()
	threads := dev.MaxThreads()
	class := params.KernelClass()
	class.EightBit = lanes == dev.ByteLanes()
	var cycles float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles = 0
		for _, g := range groups {
			_, st := core.AlignGroup(q, g, params, bufs)
			shape := device.Shape{Width: g.Width, Lanes: g.Lanes, Residues: g.Residues}
			cycles += dev.GroupCost(class, q.Len(), shape, threads, st.OverflowCells)
		}
	}
	b.StopTimer()
	simSeconds := cycles / (float64(threads) * dev.ThreadRate(threads))
	b.ReportMetric(float64(cells)/simSeconds/1e9, "sim-GCUPS")
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

func BenchmarkKernelLadderShort8(b *testing.B)  { benchLadder(b, device.Xeon().ByteLanes()) }
func BenchmarkKernelLadderShort16(b *testing.B) { benchLadder(b, device.Xeon().Lanes) }

// The ladder's slow case: a database rich in homologs of the query, so a
// tenth or a third of the byte lanes saturate and are re-packed for the
// 16-bit rung. One engine, one worker — a per-thread figure to read beside
// LadderShort8 (no escalation) and LadderShort16 (what a 16-bit-first
// search would pay for every subject).
func benchLadderHomologRich(b *testing.B, percent int) {
	rng := rand.New(rand.NewSource(int64(percent)))
	query := datagen.GenerateQueries(7)[11] // 2005 aa
	seqs := datagen.Generate(datagen.Config{Sequences: 1024, Seed: 43, MeanLen: 120, MaxLen: 240})
	for i, s := range seqs {
		if i*percent%100 < percent && s.Len() >= 60 {
			off := rng.Intn(query.Len() - 59)
			copy(s.Residues[rng.Intn(s.Len()-59):], query.Residues[off:off+60])
		}
	}
	db := seqdb.New(seqs, true)
	eng, err := core.NewEngine(db, device.Xeon())
	if err != nil {
		b.Fatal(err)
	}
	opt := core.SearchOptions{
		Params:  core.Params{Variant: core.IntrinsicSP, GapOpen: 10, GapExtend: 2, Blocked: true},
		Workers: 1,
	}
	cells := float64(query.Len()) * float64(db.Residues())
	var escalated int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Search(query, opt)
		if err != nil {
			b.Fatal(err)
		}
		escalated = res.Stats.Overflows8
	}
	b.StopTimer()
	b.ReportMetric(float64(escalated)/float64(db.Len()), "escalated/subject")
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

func BenchmarkKernelLadderHomologRich10(b *testing.B) { benchLadderHomologRich(b, 10) }
func BenchmarkKernelLadderHomologRich30(b *testing.B) { benchLadderHomologRich(b, 30) }

// BenchmarkKernelDNANuc is the nucleotide twin of the kernel
// microbenchmarks: intrinsic-SP over a seeded random DNA database under
// the NUC +2/-3 match/mismatch matrix. The 15-letter alphabet shrinks the
// query profile but the inner loops are identical, so nucleotide Mcells/s
// should track the protein number; sim-GCUPS is the deterministic
// device-model figure the regression gate compares.
func BenchmarkKernelDNANuc(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	const bases = "ACGT"
	randDNA := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = bases[rng.Intn(4)]
		}
		return s
	}
	seqs := make([]*sequence.Sequence, 256)
	for i := range seqs {
		seqs[i] = sequence.NewAlpha(fmt.Sprintf("d%03d", i), randDNA(100+rng.Intn(600)), alphabet.DNA)
	}
	db := seqdb.New(seqs, true)
	dev := device.Xeon()
	lanes := dev.Lanes
	groups, _ := db.Partition(lanes, 0)
	q := profile.NewQuery(sequence.NewAlpha("q", randDNA(400), alphabet.DNA).Residues, submat.NUC)
	params := core.Params{Variant: core.IntrinsicSP, GapOpen: 10, GapExtend: 2, Blocked: true}
	bufs := core.NewBuffers(lanes)
	cells := int64(q.Len()) * db.Residues()
	threads := dev.MaxThreads()
	class := params.KernelClass()
	var cycles float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles = 0
		for _, g := range groups {
			_, st := core.AlignGroup(q, g, params, bufs)
			shape := device.Shape{Width: g.Width, Lanes: g.Lanes, Residues: g.Residues}
			cycles += dev.GroupCost(class, q.Len(), shape, threads, st.OverflowCells)
		}
	}
	b.StopTimer()
	simSeconds := cycles / (float64(threads) * dev.ThreadRate(threads))
	b.ReportMetric(float64(cells)/simSeconds/1e9, "sim-GCUPS")
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

// Long-subject kernel microbenchmarks: the fused striped kernel on one long
// pair, through the engine. The unrelated pair finishes the lazy-F loop
// within a stripe or two per column; the planted one holds an 80%-identity
// copy of the query, which keeps F alive across segment boundaries (the
// kernel's slow case).
func benchIntra(b *testing.B, query, subject *sequence.Sequence) {
	db := seqdb.New([]*sequence.Sequence{subject}, true)
	eng, err := core.NewEngine(db, device.Xeon())
	if err != nil {
		b.Fatal(err)
	}
	opt := core.SearchOptions{
		Params: core.Params{Variant: core.IntrinsicSP, GapOpen: 10, GapExtend: 2, Blocked: true},
	}
	cells := float64(query.Len()) * float64(subject.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(query, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

// benchIntraPair is the 1000 aa paper query and an ~8000-residue subject.
func benchIntraPair() (query, subject *sequence.Sequence) {
	seqs := datagen.Generate(datagen.Config{Sequences: 1, Seed: 17, MeanLen: 8000, SigmaLog: 0.01, MaxLen: 9000})
	return datagen.GenerateQueries(7)[9], seqs[0]
}

func BenchmarkIntraStriped(b *testing.B) {
	query, subject := benchIntraPair()
	benchIntra(b, query, subject)
}

func BenchmarkIntraStripedPlanted(b *testing.B) {
	query, subject := benchIntraPair()
	// Overwrite the middle of the subject with the query, one position in
	// five substituted and an indel every 50.
	rng := rand.New(rand.NewSource(17))
	at := subject.Len()/2 - query.Len()/2
	for i, c := range query.Residues {
		switch {
		case i%50 == 25: // deletion
			continue
		case i%50 == 0: // insertion
			subject.Residues[at] = alphabet.Code(rng.Intn(20))
			at++
		}
		if rng.Intn(5) == 0 {
			c = alphabet.Code(rng.Intn(20))
		}
		subject.Residues[at] = c
		at++
	}
	benchIntra(b, query, subject)
}

// BenchmarkSearchEndToEnd measures the full parallel search (Algorithm 1)
// on the host. (What the device model makes of the same search is pinned by
// TestPlanGolden, not measured here.)
func BenchmarkSearchEndToEnd(b *testing.B) {
	db, queries := SyntheticSwissProt(0.002, true)
	q := queries[4]
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *ClusterResult
	for i := 0; i < b.N; i++ {
		res, err = cl.Search(q)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.WallGCUPS*1000, "wall-McUPS")
}

// servingDB builds n unrelated protein sequences of 50-400 residues, the
// shape of the database behind a serving node, and a 75-residue query.
func servingDB(tb testing.TB, n int) (*Database, Sequence) {
	tb.Helper()
	const letters = "ARNDCQEGHILKMFPSTWYV"
	rng := rand.New(rand.NewSource(int64(n)))
	draw := func(id string, length int) Sequence {
		res := make([]byte, length)
		for i := range res {
			res[i] = letters[rng.Intn(len(letters))]
		}
		return NewSequence(id, string(res))
	}
	seqs := make([]Sequence, n)
	for i := range seqs {
		seqs[i] = draw(fmt.Sprintf("s%d", i), 50+rng.Intn(351))
	}
	db, err := NewDatabase(seqs)
	if err != nil {
		tb.Fatal(err)
	}
	return db, draw("q", 75)
}

// BenchmarkSearchServing measures one serving-length request on the direct
// path: a 75-residue query, the ten best hits, 16,000 subjects. At this
// length what a search costs beyond its cells — selection, result plumbing,
// per-group kernel set-up — is a visible share, and B/op shows whether any
// of it still scales with the database beyond the score list.
func BenchmarkSearchServing(b *testing.B) {
	db, q := servingDB(b, 16000)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.CloseNow()
	rep := ReportOptions{TopK: 10}
	if _, err := cl.Search(q, rep); err != nil { // pack the lane groups
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cells int64
	for i := 0; i < b.N; i++ {
		res, err := cl.Search(q, rep)
		if err != nil {
			b.Fatal(err)
		}
		cells = res.Cells
	}
	b.StopTimer()
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "wall-McUPS")
}

// BenchmarkPairwiseAlign measures the pairwise alignment with traceback:
// two paper queries (464x222), and a serving-length query against typical
// top-hit subject lengths (75x400, 75x1200), the traceback every aligned
// hit of a served request pays.
func BenchmarkPairwiseAlign(b *testing.B) {
	qs := datagen.GenerateQueries(3)
	long := qs[len(qs)-1].Residues // 5478
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}
	for _, c := range []struct {
		name string
		a, s []alphabet.Code
	}{
		{"464x222", qs[4].Residues, qs[2].Residues},
		{"75x400", qs[0].Residues[:75], long[:400]},
		{"75x1200", qs[0].Residues[:75], long[:1200]},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				swalign.Align(c.a, c.s, sc)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(c.a))*float64(len(c.s))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
		})
	}
}

// BenchmarkPairwiseBanded measures banded rescoring (the seed-and-extend
// primitive).
func BenchmarkPairwiseBanded(b *testing.B) {
	qs := datagen.GenerateQueries(3)
	a := qs[4].Residues
	c := qs[9].Residues // 1000
	sc := swalign.Scoring{Matrix: submat.BLOSUM62, GapOpen: 10, GapExtend: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swalign.ScoreBanded(a, c, sc, 0, 16)
	}
}

// BenchmarkScheduleSimulation measures the deterministic makespan
// simulator that replays OpenMP policies over half a million chunks.
func BenchmarkScheduleSimulation(b *testing.B) {
	lengths := datagen.Lengths(datagen.SwissProtConfig(1.0))
	shapes := seqdb.PackShapes(lengths, 32, true, core.DefaultLongSeqThreshold)
	phi := device.Phi()
	coeffs := phi.Coeffs(device.KernelClass{Blocked: true}, 1000, 32, 240)
	intra := phi.IntraCoeffs(1000)
	costs := make([]float64, len(shapes))
	for i, s := range shapes {
		if s.Intra {
			costs[i] = intra.Cost(s)
		} else {
			costs[i] = coeffs.Cost(s)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Simulate(costs, 240, sched.Dynamic, phi.DispatchCycles)
	}
}

// BenchmarkProfileBuild measures score-profile construction, the per-column
// cost the SP variants amortise over the query length.
func BenchmarkProfileBuild(b *testing.B) {
	q := profile.NewQuery(datagen.GenerateQueries(3)[0].Residues, submat.BLOSUM62)
	sr := profile.NewScoreRows(32)
	residues := make([]uint8, 32)
	for i := range residues {
		residues[i] = uint8(i % 24)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.Build(q, residues)
	}
}

// BenchmarkFASTAWrite measures database serialisation throughput.
func BenchmarkFASTAWrite(b *testing.B) {
	seqs := datagen.Generate(datagen.Config{Sequences: 200, Seed: 5})
	b.ResetTimer()
	var sink countingWriter
	for i := 0; i < b.N; i++ {
		if err := sequence.WriteFASTA(&sink, seqs, 60); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(sink.n / int64(b.N))
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }
