// Command swindex builds and inspects persistent preprocessed database
// indexes (.swdb): a binary image of the fully preprocessed search
// database — encoded residues packed in length-sorted order into one
// contiguous arena, the sort permutation and header strings — so swsearch,
// swserve and swbench start in O(1) work per sequence instead of
// re-parsing and re-sorting FASTA on every boot.
//
// Usage:
//
//	swindex build db.fasta -o db.swdb [-unsorted]
//	swindex info db.swdb
//	swindex split db.swdb -n 4 [-dir shards/] [-prefix db]
//
// Every -db flag in this repository accepts the resulting .swdb wherever
// it accepts FASTA; the formats are sniffed by magic.
//
// split cuts an index into n shard .swdb files (equal residue fractions,
// dealt greedily in processing order so every shard inherits the parent's
// length distribution) plus a manifest recording each shard's checksum
// key and its mapping back into the parent. Distribute the shard files
// across swserve -shards nodes and hand the manifest to a coordinator
// (swserve -manifest -nodes); the checksum keys guarantee both sides are
// talking about the same bytes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"heterosw/internal/alphabet"
	"heterosw/internal/remote"
	"heterosw/internal/seqdb"
	"heterosw/internal/seqdb/index"
	"heterosw/internal/sequence"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		build(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "split":
		split(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fatal(fmt.Errorf("unknown subcommand %q (have build, info, split)", os.Args[1]))
	}
}

func build(args []string) {
	fs := flag.NewFlagSet("swindex build", flag.ExitOnError)
	out := fs.String("o", "", "output .swdb path (default: input with .swdb extension)")
	unsorted := fs.Bool("unsorted", false, "skip the length-sorting pre-processing (ablation databases)")
	// Accept the documented `build db.fasta -o db.swdb` shape: the flag
	// package stops at the first positional, so lift it out first.
	var in string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		in = args[0]
		args = args[1:]
	}
	fs.Parse(args)
	switch {
	case in == "" && fs.NArg() == 1:
		in = fs.Arg(0)
	case in != "" && fs.NArg() == 0:
	default:
		fatal(fmt.Errorf("build needs exactly one input file (FASTA or .swdb)"))
	}
	outPath := *out
	if outPath == "" {
		// db.fasta -> db.swdb; db.swdb -> db.swdb (an in-place rebuild:
		// WriteFile replaces atomically, so the mapped input stays valid).
		outPath = strings.TrimSuffix(strings.TrimSuffix(in, ".fasta"), ".swdb") + ".swdb"
	}

	start := time.Now()
	var (
		db   *seqdb.Database
		kind string
		err  error
	)
	if *unsorted {
		// Sniff the magic before parsing so the FASTA file is read once.
		if index.SniffFile(in) {
			fatal(fmt.Errorf("-unsorted needs FASTA input; %s is already an index", in))
		}
		var seqs []*sequence.Sequence
		seqs, err = sequence.ReadFASTAFile(in)
		db, kind = seqdb.New(seqs, false), "fasta"
	} else {
		db, kind, err = index.LoadDatabase(in, alphabet.Protein)
	}
	if err != nil {
		fatal(err)
	}
	loaded := time.Since(start)

	sum, err := index.WriteFile(outPath, db)
	if err != nil {
		fatal(err)
	}
	st, err := os.Stat(outPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("swindex: %s (%s input, loaded in %v)\n", db, kind, loaded.Round(time.Millisecond))
	fmt.Printf("swindex: wrote %s: %d bytes, checksum %016x\n", outPath, st.Size(), sum)
}

func info(args []string) {
	fs := flag.NewFlagSet("swindex info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("info needs exactly one .swdb file"))
	}
	start := time.Now()
	ix, err := index.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	opened := time.Since(start)
	db := ix.Database()
	fmt.Printf("file:      %s (swdb v%d, opened in %v)\n", fs.Arg(0), index.Version, opened.Round(time.Microsecond))
	fmt.Printf("checksum:  %016x (engine key %s)\n", ix.Checksum, ix.Key())
	fmt.Printf("database:  %s\n", db)
}

func split(args []string) {
	fs := flag.NewFlagSet("swindex split", flag.ExitOnError)
	n := fs.Int("n", 2, "number of shards")
	dir := fs.String("dir", ".", "output directory for shard files and the manifest")
	prefix := fs.String("prefix", "", "shard filename prefix (default: input basename)")
	// Accept the documented `split db.swdb -n 4` shape: lift the leading
	// positional before flag parsing, as build does.
	var in string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		in = args[0]
		args = args[1:]
	}
	fs.Parse(args)
	switch {
	case in == "" && fs.NArg() == 1:
		in = fs.Arg(0)
	case in != "" && fs.NArg() == 0:
	default:
		fatal(fmt.Errorf("split needs exactly one input .swdb file"))
	}
	p := *prefix
	if p == "" {
		base := filepath.Base(in)
		p = strings.TrimSuffix(base, filepath.Ext(base))
	}
	start := time.Now()
	man, err := remote.SplitIndex(in, *n, *dir, p)
	if err != nil {
		fatal(err)
	}
	manPath := filepath.Join(*dir, p+".manifest.json")
	if err := remote.WriteManifest(manPath, man); err != nil {
		fatal(err)
	}
	fmt.Printf("swindex: split %s (%d sequences, %d residues) into %d shards in %v\n",
		in, man.Sequences, man.Residues, len(man.Shards), time.Since(start).Round(time.Millisecond))
	for i, sh := range man.Shards {
		fmt.Printf("swindex: shard %d: %s (%d sequences, %d residues, key %s)\n",
			i, filepath.Join(*dir, sh.File), sh.Sequences, sh.Residues, sh.Key)
	}
	fmt.Printf("swindex: wrote manifest %s\n", manPath)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  swindex build db.fasta -o db.swdb [-unsorted]
  swindex info db.swdb
  swindex split db.swdb -n 4 [-dir shards/] [-prefix db]
`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swindex:", err)
	os.Exit(1)
}
