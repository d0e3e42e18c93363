// Package heterosw is a Smith-Waterman protein database search library for
// heterogeneous systems, reproducing Rucci et al., "Smith-Waterman
// Algorithm on Heterogeneous Systems: A Case Study" (IEEE CLUSTER 2014).
//
// The library provides:
//
//   - exact local alignment (Smith-Waterman with affine gaps) with
//     traceback for pairwise use — see Align and Score;
//   - a parallel database-search engine that executes one kernel, an
//     adaptive precision ladder (an 8-bit signed first pass with twice
//     the lanes per vector word wherever the gap penalties fit a byte, its
//     scores looked up in-register from the query profile, a row of which
//     fits one vector register, with saturated lanes re-packed for a
//     16-bit score-profile pass and, from there, recomputed in 32 bits;
//     Result.Overflows8, Overflows and OverflowCells count the climb), and
//     one intra-task kernel for subjects over 3,072 residues:
//     Farrar's striped layout, each column of it one call of the fused
//     inter-task column step (stripes as rows, query segments as lanes),
//     16-bit with 32-bit scalar recomputation on saturation. The paper's
//     six kernel variants ({no-vec, guided-simd, intrinsic} x {query
//     profile, score profile}) are Options.Variant labels the planner
//     prices; no search reads them — see NewCluster and Cluster.Search;
//   - a search service object over a database: every search is one
//     Request — a query, an optional request-scoped matrix, an optional
//     six-frame translation and the reporting options — through one of its
//     doors, and every door runs one validation and one executor,
//     each search one pass of all the host's cores over the whole database
//     — see NewCluster, Request, Cluster.Do, Cluster.DoBatch and
//     Cluster.Search;
//   - a pure planner that prices the paper's Algorithm 1 on one modelled
//     device and its Algorithm 2 — the heterogeneous CPU+coprocessor split
//     — generalised to any roster of modelled devices under static
//     (residue split), dynamic and guided (device-level chunk queue)
//     workload distributions, from sequence lengths alone, no kernels run
//     — see Cluster.Plan and cmd/swbench;
//   - one concurrent query scheduler per cluster, behind every door:
//     several queries run in flight, each resolving as soon as its
//     own result is ready, identical requests share one execution and
//     repeats come from a cluster-wide LRU cache — see Cluster.Do,
//     Cluster.Stats and the cmd/swserve HTTP front end;
//   - two-phase aligned-hit reporting: after the vectorised score pass
//     selects the top-K hits, a traceback phase re-aligns the query
//     against just those K subjects and decorates each
//     hit with coordinates, a CIGAR, identity counts and (optionally) a
//     bit score and E-value from a Gumbel null model fitted over the full
//     score distribution — see ReportOptions, Hit.Alignment,
//     Hit.Significance and WriteFormat;
//   - a native vector backend for the kernels' fused DP loops
//     (internal/vec), in tiers selected by runtime CPU detection: on
//     amd64 hosts with AVX2 the inter-task kernels run hand-written
//     assembly (16x int16 / 32x int8 lanes per 256-bit register) — the
//     16-bit rung one call per database column, the byte rung one call
//     per query tile with the column loop inside the kernel, as in the
//     paper's Algorithm 1 — hosts with AVX-512VBMI run the byte lanes 64 to a 512-bit
//     register with the score lookup in one vpermb and three of each
//     row's maxes as compare-into-mask plus masked blend, to spread the
//     work over two issue ports (and pack their lane groups 64 wide to
//     match), and the portable pure-Go loops are the
//     verified fallback everywhere else — set HETEROSW_VEC=portable (or
//     build with -tags purego) to force them, HETEROSW_VEC=avx2 to stop
//     at AVX2; every tier returns bit-identical scores;
//   - deterministic performance models of the paper's two devices (dual
//     Xeon E5-2670 host, 60-core Xeon Phi) behind that planner: simulated
//     GCUPS come from it alone, search results report the real wall-clock
//     throughput of the Go kernels;
//   - a synthetic Swiss-Prot workload generator matching the statistics of
//     the paper's benchmark database, plus FASTA I/O for real data
//     (ReadFASTA and ReadFASTAFile, which name the alphabet);
//   - a persistent preprocessed database format (.swdb): a versioned,
//     checksummed binary image of the fully preprocessed database that
//     loads by mmap and zero-copy slicing — no parse, no sort, no
//     per-sequence copies — see WriteIndexFile, OpenIndexFile and
//     LoadDatabaseFile, and the cmd/swindex CLI;
//   - genomics workloads over a generic alphabet layer: nucleotide
//     database search under the IUPAC DNA alphabet with match/mismatch
//     scoring (NewDNASequence, and the "dna" alphabet of ReadFASTAFile
//     and LoadDatabaseFile),
//     blastx-style six-frame translated search of DNA queries against
//     protein databases with per-hit frames and DNA coordinates
//     (Request.Translate), user-supplied substitution matrices in NCBI
//     textual form (Request.Matrix, the ErrBadMatrix error family), and SAM 1.6 / BLAST tabular output of
//     aligned results (WriteFormat, swsearch -outfmt, the format field
//     on POST /search);
//   - distributed multi-node serving over .swdb shards: swindex split
//     cuts a parent index into shard indexes plus a manifest,
//     NewShardServer serves the shard execution protocol on each node,
//     and NewDistributedCluster mounts the shards as remote backends on
//     an ordinary *Cluster — each node answers its shard's top K hits and
//     the histogram below them, the coordinator selects the top K over
//     their union and traces them back over the parent index, and
//     E-values fit over the summed histograms, so results are
//     byte-identical to a single-node search of the unsplit database,
//     with per-attempt timeouts, retries with exponential backoff
//     across replicas over 503s, transport failures and answers that
//     fail to decode or check, and hedged requests for tail latency —
//     see NewDistributedCluster, DistributedOptions, NewShardServer and
//     SplitIndexFile.
//
// # The persistent database index
//
// NewDatabase pays the full preprocessing cost — FASTA parse, residue
// encoding, the length sort — on every construction. WriteIndexFile
// persists the finished product as a .swdb image (internal/seqdb/index
// documents the exact layout); OpenIndexFile restores it with O(1) work
// per sequence, and LoadDatabaseFile accepts either representation,
// sniffed by magic, which is what every -db CLI flag uses. Its alphabet
// argument, "protein" or "dna", governs a FASTA file; an index loads under
// the alphabet it records:
//
//	db, err := heterosw.LoadDatabaseFile("swissprot.swdb", "protein") // or .fasta
//	cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{...})
//
// A corrupted or truncated index fails to open with an error wrapping
// ErrBadIndex — never a panic — and a checksum-derived identity key is
// what coordinator and shard nodes address a shard by.
// Loading from .swdb and loading from FASTA are conformant: every entry
// point returns byte-identical results over either path (pinned by the
// conformance harness under every variant label, the ladder's escalation
// rungs included).
//
// # Quick start
//
//	db, queries := heterosw.SyntheticSwissProt(0.01, true)
//	cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{})
//	if err != nil { ... }
//	res, err := cl.Search(queries[0], heterosw.ReportOptions{TopK: 10})
//	if err != nil { ... }
//	for _, h := range res.Hits {
//	    fmt.Println(h.ID, h.Score)
//	}
//
// # Cluster search, and the device model
//
// A Cluster runs on the host. The paper statically splits the database
// between exactly one Xeon and one Xeon Phi and names a dynamic
// distribution strategy as future work; ClusterOptions describes such a
// roster and strategy — the static split is Algorithm 2 when the roster is
// {xeon, phi}, "dynamic"/"guided" a device-level chunk queue — and
// Cluster.Plan prices it on the device models, while searches execute the
// same whatever it says:
//
//	cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{
//	    Devices: []heterosw.DeviceKind{heterosw.DeviceXeon, heterosw.DevicePhi, heterosw.DevicePhi},
//	    Dist:    "dynamic",
//	})
//	res, err := cl.Do(ctx, heterosw.Request{Query: q}) // on the host
//	plan, err := cl.Plan(q.Len())                       // on the model: plan.Seconds, plan.GCUPS
//
// # Requests and doors
//
// A Request is the whole search: Query, Matrix (request-scoped NCBI
// matrix text), Translate (six-frame translated search) and Report (the
// reporting phases). Do runs one through the cluster's one scheduler —
// up to ClusterOptions.MaxInFlight requests run at once and each resolves
// as soon as its own result is decorated, identical in-flight requests
// share one execution, and repeats are answered from the
// cluster's LRU result cache, whose key holds the matrix's parsed content,
// the translate flag and the report options, so a translated or
// custom-matrix request is cached like any other. Do's context bounds the
// caller's wait, not the computation: an abandoned request still finishes
// into the cache for the next asker. Results may be shared between
// callers, translated and custom-matrix ones included; treat them as
// read-only. DoBatch runs a batch one request after another, so it holds
// one request's working memory at a time, and returns the results in
// request order; the cmd/swserve HTTP server's /search is one Do and its
// /batch one DoBatch. ClusterOptions.MaxInFlight and CacheSize (512
// entries of K hits by default) tune the scheduler. Search (and
// SearchScheduled, Do in variadic form) serve direct searches only;
// Search takes a scheduler slot like every door but is never joined or
// cached, so every call computes.
//
// A caller that wants several results in request order issues concurrent
// Do calls and reads each result from its request's slot; they share the
// in-flight slots with every other caller:
//
//	res := make([]*heterosw.Result, len(queries))
//	var wg sync.WaitGroup
//	for i, q := range queries {
//	    wg.Add(1)
//	    go func() { defer wg.Done(); res[i], _ = cl.Do(ctx, heterosw.Request{Query: q}) }()
//	}
//	wg.Wait() // res[i] answers queries[i]
//
// Cluster.CloseNow drops queued work and aborts in-flight queries at their
// next cancellation check; every door then fails with ErrClusterClosed, so
// no caller waits on a torn-down scheduler.
//
// A request the validation refuses fails at its door, before any
// scheduler sees it: malformed requests wrap ErrBadRequest, rejected
// matrix text ErrBadMatrix, unsatisfiable reports ErrNoSignificance or
// ErrTooManyAlignments.
//
// # Aligned-hit reporting
//
// Request.Report selects the two-phase reporting pipeline of production
// search services (the SSW Library's score-then-traceback design): phase
// one is the vectorised score pass over the whole database, phase two
// re-aligns the query against only the top-K hits:
//
//	res, err := cl.Do(ctx, heterosw.Request{Query: q, Report: heterosw.ReportOptions{
//	    Alignments: true, // coordinates, CIGAR, identities per hit
//	    EValues:    true, // bit score + E-value from a fitted null model
//	    TopK:       10,   // K: the number of hits reported and aligned
//	}})
//	for _, h := range res.Hits {
//	    fmt.Println(h.ID, h.Score, h.Alignment.CIGAR, h.Significance.EValue)
//	}
//
// The traceback phase only ever aligns K sequences, never the full
// database. A lane pass runs the K hits, 16 to a group, through the 16-bit
// column step once, finding each hit's exact maximum, checking it against
// the kernel score and locating the alignment's end cell, and keeps an H/E
// checkpoint every 64 columns, at most one byte per row and column of the
// group; each hit's path is then walked back one 64-column block of
// recomputed direction bytes at a time. A hit at the int16 rail is aligned
// in full by the reference alignment. K —
// ReportOptions.TopK, else 10 when a reporting phase is on, else 0 for
// every hit — is
// resolved before the score pass and travels with the query to the
// dispatcher, whose one bounded selection returns exactly K hits in the
// order of the paper's step 4 (score descending, ties in database
// order); nothing downstream orders or holds more, so Result.Hits is K
// long in a cached entry too, and no result keeps the engine's score list:
// a caller that wants every subject's score asks for every hit (TopK 0,
// no reporting phase).
// Report options, K included, are part of the scheduler's dedup/cache
// key, so an aligned result and a score-only result of the same query
// never alias, nor do two different K; the HTTP front end's top_k is that
// K, for score-only requests as well. WriteFormat renders a decorated
// result in one of Formats: a BLAST-style text report (swsearch -blast),
// SAM 1.6 or BLAST tabular TSV (swsearch -outfmt sam|tsv); the HTTP front
// end exposes the same phases as the align, evalue and format request
// fields.
//
// # Alphabets and translated search
//
// Databases and queries carry their alphabet, named "protein" or "dna"
// (Sequence.Alphabet, Database.Alphabet). FASTA read under "dna"
// (ReadFASTA, ReadFASTAFile, LoadDatabaseFile, swsearch -dna) encodes
// under the 15-letter IUPAC nucleotide alphabet — case
// insensitive, with unrecognised bytes becoming N — and searches default
// to the blastn-style NUC +2/-3 matrix; .swdb indexes persist the
// alphabet and restore it on load. Request.Translate searches a DNA query
// against a protein database in all six reading frames and merges the
// per-frame results, reporting each hit's winning frame and the aligned
// region's forward-strand DNA coordinates. Request.Matrix (the HTTP
// matrix field, the swsearch -matrixfile flag) scores a request with a
// user matrix parsed from NCBI textual form; rejected matrix text wraps
// ErrBadMatrix. Align and Score take the same Options a cluster does and
// resolve them as a search does, so a pairwise score and a search's hit
// score agree.
//
// # Tools
//
// The cmd/swindex tool builds, inspects and shards .swdb indexes
// (swindex build db.fasta -o db.swdb; swindex split db.swdb -n 4);
// cmd/swbench is the device model's CLI: it regenerates every figure of
// the paper's evaluation and prices arbitrary rosters under the
// distribution strategies (-devices xeon,phi,phi -dist dynamic), planning
// over a real database with -db; cmd/swserve fronts a cluster with the
// JSON search API (/search, /batch, /healthz) — give it a .swdb and restarts are
// near-instant, a -shards node and a -manifest/-nodes coordinator make
// it multi-node — and bench/'s serve_* workloads load-test it. The
// README's "The device model: pricing a roster" and "Interpreting GCUPS"
// explain what the simulated numbers mean beside the wall-clock ones.
package heterosw
