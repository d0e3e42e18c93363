// Command swsearch runs a Smith-Waterman database search on this host (the
// paper's Algorithm 1 over every core), printing the top hits; -blast and
// -outfmt print their alignments from the search's own traceback phase.
// Protein is the default alphabet; -dna searches nucleotide databases and
// -translate runs a six-frame translated (blastx-style) search of DNA
// queries against a protein database. What a search would take on the
// paper's Xeon and Xeon Phi is swbench's question (swbench -devices
// xeon,phi -dist dynamic), not a flag here.
//
// Usage:
//
//	swsearch -db db.fasta -query q.fasta [flags]
//	swsearch -synthetic 0.01 -queryindex 3 [flags]
//	swsearch -db genes.fasta -query reads.fasta -dna -outfmt tsv
//	swsearch -db prot.swdb -query reads.fasta -translate -outfmt sam
//	swsearch -db prot.swdb -query many.fasta -batch -blast
//
// Flags select the substitution matrix (built-in by name, or a custom file
// with -matrixfile) and gap penalties; see -help. Every search runs the
// 8/16/32-bit scoring ladder. The paper's kernel variants are labels the
// device model prices (swbench -variant), not kernels this host runs.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"heterosw"
	"heterosw/internal/vec"
)

func main() {
	var (
		dbPath     = flag.String("db", "", "database file: FASTA or a swindex-built .swdb index")
		queryPath  = flag.String("query", "", "query FASTA file (first record is searched unless -queryindex)")
		synthetic  = flag.Float64("synthetic", 0, "use a synthetic Swiss-Prot database at this scale instead of -db")
		queryIndex = flag.Int("queryindex", 0, "index of the query record (within -query, or among the 20 paper queries with -synthetic)")
		matrix     = flag.String("matrix", "", "substitution matrix: BLOSUM45/50/62/80, PAM250, NUC (default: BLOSUM62 for protein, NUC for DNA)")
		matrixFile = flag.String("matrixfile", "", "custom substitution matrix file in the NCBI textual format (overrides -matrix)")
		gapOpen    = flag.Int("gapopen", 10, "gap open penalty q (gap of length x costs q + r*x)")
		gapExtend  = flag.Int("gapextend", 2, "gap extension penalty r")
		topK       = flag.Int("top", 10, "number of hits to print")
		blast      = flag.Bool("blast", false, "run the two-phase aligned search (score pass, then tracebacks over the top hits) and print a BLAST-style report")
		evalue     = flag.Bool("evalue", false, "with -blast: fit a null model over the score distribution and report bit scores and E-values")
		dna        = flag.Bool("dna", false, "nucleotide mode: parse the FASTA database and queries under the IUPAC DNA alphabet")
		translated = flag.Bool("translate", false, "six-frame translated search (blastx-style): DNA queries against a protein database; implies the reporting pipeline")
		outfmt     = flag.String("outfmt", "", "report format: blast, sam, tsv; implies the two-phase aligned search like -blast")
		batch      = flag.Bool("batch", false, "search every record of the query FASTA as one batch instead of just -queryindex")
	)
	flag.Parse()
	// A format no writer renders fails before the database loads.
	if *outfmt != "" && !slices.Contains(heterosw.Formats(), *outfmt) {
		fatal(fmt.Errorf("unknown -outfmt %q (have %s)", *outfmt, strings.Join(heterosw.Formats(), ", ")))
	}
	alpha := "protein"
	if *dna {
		alpha = "dna"
	}

	var (
		db      *heterosw.Database
		queries []heterosw.Sequence
		err     error
	)
	switch {
	case *synthetic > 0:
		if *dna {
			fatal(fmt.Errorf("-dna does not apply to the synthetic protein database"))
		}
		db, queries = heterosw.SyntheticSwissProt(*synthetic, true)
		if *translated {
			fatal(fmt.Errorf("-translate needs DNA queries from -query"))
		}
	case *dbPath != "":
		// FASTA or a preprocessed .swdb index, sniffed by magic; the index
		// path restores the sorted database without parsing.
		db, err = heterosw.LoadDatabaseFile(*dbPath, alpha)
		if err != nil {
			fatal(err)
		}
		if *queryPath == "" {
			fatal(fmt.Errorf("-query is required with -db"))
		}
		// Translated search takes nucleotide queries against a protein
		// database, so -translate reads the query FASTA as DNA even
		// without -dna.
		if *translated {
			alpha = "dna"
		}
		queries, err = heterosw.ReadFASTAFile(*queryPath, alpha)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("provide -db/-query or -synthetic; see -help"))
	}
	if *queryIndex < 0 || *queryIndex >= len(queries) {
		fatal(fmt.Errorf("query index %d outside [0,%d)", *queryIndex, len(queries)))
	}
	query := queries[*queryIndex]

	// The gap flags carry their own 10/2 defaults, so zeros are literal.
	opt := heterosw.Options{
		Matrix:        *matrix,
		GapOpen:       *gapOpen,
		GapExtend:     *gapExtend,
		NoGapDefaults: true,
	}
	// A custom matrix travels with every request, replacing -matrix.
	var matrixText string
	if *matrixFile != "" {
		text, rerr := os.ReadFile(*matrixFile)
		if rerr != nil {
			fatal(rerr)
		}
		matrixText = string(text)
	}

	cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{Options: opt})
	if err != nil {
		fatal(err)
	}
	if *blast || *outfmt != "" || *translated || *batch {
		// The two-phase reporting pipeline: the vectorised score pass
		// selects the top hits, then the traceback phase re-aligns the
		// query against just those hits. -batch feeds every query record
		// through the cluster in one pass.
		rep := heterosw.ReportOptions{Alignments: true, EValues: *evalue, TopK: *topK}
		sel := []heterosw.Sequence{query}
		if *batch {
			sel = queries
		}
		reqs := make([]heterosw.Request, len(sel))
		for i, q := range sel {
			reqs[i] = heterosw.Request{Query: q, Matrix: matrixText, Translate: *translated, Report: rep}
		}
		start := time.Now()
		results, err := cl.DoBatch(context.Background(), reqs)
		if err != nil {
			fatal(err)
		}
		format := cmp.Or(*outfmt, "blast")
		for i, res := range results {
			if i > 0 && format == "blast" {
				fmt.Println(strings.Repeat("=", 70))
			}
			if err := heterosw.WriteFormat(os.Stdout, format, sel[i], db, res, 60); err != nil {
				fatal(err)
			}
		}
		if format == "blast" {
			var cells int64
			var wall float64
			for _, res := range results {
				cells += res.Cells
				wall += res.WallSeconds
			}
			fmt.Printf("\nperformance: %.3f GCUPS wall in the score pass, %v real in all\n",
				float64(cells)/wall/1e9, time.Since(start).Round(time.Millisecond))
		}
		return
	}

	unit := "aa"
	if query.Alphabet() == "dna" {
		unit = "nt"
	}
	fmt.Printf("database: %s\n", db)
	fmt.Printf("query:    %s (%d %s)\n", query.ID(), query.Len(), unit)
	fmt.Printf("vec:      %s\n", vec.Info())

	start := time.Now()
	res, err := cl.Do(context.Background(), heterosw.Request{
		Query:  query,
		Matrix: matrixText,
		Report: heterosw.ReportOptions{TopK: *topK},
	})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("performance: %.3f GCUPS wall (%v real)\n", res.WallGCUPS, elapsed.Round(time.Millisecond))
	fmt.Printf("cells: %d, overflow escalations: %d to 16-bit, %d to 32-bit\n\n",
		res.Cells, res.Overflows8, res.Overflows)

	fmt.Printf("%4s %-16s %7s\n", "#", "subject", "score")
	for i, h := range res.Hits {
		fmt.Printf("%4d %-16s %7d\n", i+1, h.ID, h.Score)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swsearch:", err)
	os.Exit(1)
}
