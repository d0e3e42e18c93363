package heterosw

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"heterosw/internal/remote"
)

// The HTTP front end exposes a Cluster as a JSON search service — the
// serving shape of the SwissAlign webserver precedent, backed by the
// cluster's query scheduler so that independent HTTP requests share its
// in-flight slots, dedup and cache with every other Do and DoBatch call.
//
//	POST /search   {"id": "q1", "residues": "MKWVLA...", "top_k": 10}
//	POST /batch    {"queries": [{...}, ...], "top_k": 10}
//	POST /batch    {"fasta": ">q1\nMKWVLA...\n>q2\n...", "top_k": 10}
//	GET  /healthz
//
// /search and /batch answer with searchJSON (respectively a batchJSON
// wrapping one searchJSON per query, in request order); /healthz serves a
// healthJSON snapshot of database, backend, scheduler and cache state.
// Disconnected clients abandon only their wait: the computation finishes
// and its result stays in the cluster cache for the next asker.
//
// Queries encode under the database's alphabet (protein or DNA). /search
// additionally accepts "format" ("json" default, or the text formats
// "blast", "sam", "tsv" — the latter two imply align), "translate" (six-
// frame translated search of a DNA query against a protein database) and
// "matrix" (request-scoped substitution matrix text in the NCBI format;
// rejected text answers 400 wrapping ErrBadMatrix). Every /search is one
// Cluster.Do and every /batch one Cluster.DoBatch, so translated and
// custom-matrix requests schedule, dedup and cache like any other: the
// matrix's content and the translate flag are part of the cache key.

// maxRequestBytes bounds an HTTP request body: the longest real protein is
// ~36k residues, so even a generous batch fits comfortably.
const maxRequestBytes = 16 << 20

// maxQueryResidues bounds one query: roughly 2x titin, the longest known
// protein. Without a cap a single request could submit a multi-megabyte
// "query" whose O(query x database) computation cannot be cancelled once
// its score pass starts — a trivial denial of service.
const maxQueryResidues = 65536

// maxResponseHits bounds top_k: the full score list of a half-million-
// sequence database has no place in a JSON response, whatever the request
// says.
const maxResponseHits = 10000

// queryJSON is one query in a /search or /batch request.
type queryJSON struct {
	// ID labels the query in the response (optional).
	ID string `json:"id"`
	// Residues is the ASCII protein sequence; letters outside the
	// 24-letter alphabet encode as X.
	Residues string `json:"residues"`
}

// hitJSON is one database match in a response.
type hitJSON struct {
	// Index is the subject's position in the database; ID its identifier;
	// Score the optimal Smith-Waterman score.
	Index int    `json:"index"`
	ID    string `json:"id"`
	Score int    `json:"score"`
	// Frame is the winning reading frame (+1..+3, -1..-3) of a translated
	// search; absent for direct searches.
	Frame int `json:"frame,omitempty"`
	// Alignment is the traceback detail; present only when the request
	// set align.
	Alignment *HitAlignment `json:"alignment,omitempty"`
	// BitScore and EValue are present only when the request set evalue.
	BitScore *float64 `json:"bit_score,omitempty"`
	EValue   *float64 `json:"evalue,omitempty"`
}

// searchJSON is the /search response and the per-query element of /batch.
type searchJSON struct {
	ID string `json:"id,omitempty"`
	// Hits is sorted by descending score, truncated to the request's
	// top_k (10 when unset).
	Hits []hitJSON `json:"hits"`
	// Significance summarises the fitted Gumbel null model when the
	// request set evalue.
	Significance string `json:"significance,omitempty"`
	// Cells is the dynamic-programming cell count; WallSeconds the host
	// time of the search that produced this result (a cache hit repeats
	// the original search's).
	Cells       int64   `json:"cells"`
	WallSeconds float64 `json:"wall_seconds"`
}

// batchJSON is the /batch response.
type batchJSON struct {
	Results []searchJSON `json:"results"`
}

// healthJSON is the /healthz response. Status is "ok", or "degraded" on
// a distributed coordinator with at least one shard down to zero live
// replicas — the signal a load balancer rotates on while the shard still
// answers retryable 503s.
type healthJSON struct {
	Status        string  `json:"status"`
	Sequences     int     `json:"sequences"`
	Residues      int64   `json:"residues"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Stats is the cluster's counters, its keys inline.
	Stats
	// Topology is the live-topology snapshot of a distributed
	// coordinator — per-node health states, probe latency quantiles,
	// failure streaks and per-shard replica routing; absent on a local
	// cluster.
	Topology *TopologyInfo `json:"topology,omitempty"`
}

// errorJSON is the error response body.
type errorJSON struct {
	Error string `json:"error"`
}

type server struct {
	c     *Cluster
	start time.Time
}

// NewHTTPHandler wraps a cluster in the JSON search API served by
// cmd/swserve. Every /search and /batch request is routed through the
// cluster's serving scheduler (Do, DoBatch), so concurrent requests share
// its in-flight slots, identical in-flight queries share one execution and
// repeated queries hit the LRU cache.
func NewHTTPHandler(c *Cluster) http.Handler {
	s := &server{c: c, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/admin/reload", s.handleReload)
	mux.HandleFunc("/admin/probe", s.handleProbe)
	return mux
}

// writeJSON answers v as one JSON line, marshalled first so the answer
// carries its Content-Length and a coordinator reads a node's answer into
// one buffer. A value that fails to marshal answers an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err == nil {
		body = append(body, '\n')
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	// The client may be gone; nothing useful to do with the error.
	_, _ = w.Write(body)
}

// writeError is the central error -> HTTP response mapper: the one place
// allowed to render err.Error() into a body, so wire formats and status
// mapping stay consistent across handlers.
//
//sw:errmapper
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// decodeBody parses a JSON request body into v with a size cap.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeStatus maps a body-decoding failure to its status: an oversize
// body is 413, anything else malformed is 400.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// reportFor validates the response-shaping fields shared by /search and
// /batch and resolves them into the library's ReportOptions. top_k
// defaults to defaultReportHits and always travels with the request —
// score-only ones too — so the search selects exactly the hits the response
// carries; it is therefore part of the cache key.
func reportFor(topK int, align, evalue bool) (ReportOptions, error) {
	switch {
	case topK < 0:
		return ReportOptions{}, fmt.Errorf("negative top_k %d", topK)
	case topK > maxResponseHits:
		return ReportOptions{}, fmt.Errorf("top_k %d exceeds the %d limit", topK, maxResponseHits)
	case topK == 0:
		topK = defaultReportHits
	}
	if align && topK > MaxAlignHits {
		return ReportOptions{}, fmt.Errorf("top_k %d exceeds the %d limit for aligned reports", topK, MaxAlignHits)
	}
	return ReportOptions{Alignments: align, EValues: evalue, TopK: topK}, nil
}

// toQuery validates one request query, encoding it under the named
// alphabet ("dna" or protein otherwise).
func toQuery(q queryJSON, pos, alpha string) (Sequence, error) {
	if q.Residues == "" {
		return Sequence{}, fmt.Errorf("%s: empty residues", pos)
	}
	if len(q.Residues) > maxQueryResidues {
		return Sequence{}, fmt.Errorf("%s: %d residues exceeds the %d limit", pos, len(q.Residues), maxQueryResidues)
	}
	id := cmp.Or(q.ID, "query")
	if alpha == "dna" {
		return NewDNASequence(id, q.Residues), nil
	}
	return NewSequence(id, q.Residues), nil
}

// toSearchJSON renders a result for transport, carrying any phase-two
// decorations along. The hit list is already the request's top_k long.
func toSearchJSON(id string, res *Result) searchJSON {
	out := searchJSON{
		ID:          id,
		Hits:        make([]hitJSON, len(res.Hits)),
		Cells:       res.Cells,
		WallSeconds: res.WallSeconds,
	}
	if res.Significance != nil {
		out.Significance = res.Significance.String()
	}
	for i, h := range res.Hits {
		hj := hitJSON{Index: h.Index, ID: h.ID, Score: h.Score, Frame: h.Frame, Alignment: h.Alignment}
		if h.Significance != nil {
			bits, ev := h.Significance.BitScore, h.Significance.EValue
			hj.BitScore, hj.EValue = &bits, &ev
		}
		out.Hits[i] = hj
	}
	return out
}

// searchRequest is the /search body: one query plus response shaping.
// align enables the traceback phase (coordinates, CIGAR, identities per
// hit); evalue the significance fit (bit score and E-value per hit);
// format selects the response rendering ("json" default, or the text
// formats "blast", "sam", "tsv", which imply align); translate runs the
// six-frame translated search; matrix supplies request-scoped
// substitution-matrix text.
type searchRequest struct {
	queryJSON
	TopK      int    `json:"top_k"`
	Align     bool   `json:"align"`
	EValue    bool   `json:"evalue"`
	Format    string `json:"format"`
	Translate bool   `json:"translate"`
	Matrix    string `json:"matrix"`
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req searchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("invalid request: %w", err))
		return
	}
	format := cmp.Or(req.Format, "json")
	if format != "json" && !slices.Contains(Formats(), format) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown format %q (have json, %s)", req.Format, strings.Join(Formats(), ", ")))
		return
	}
	// A translated query is DNA whatever the database holds; otherwise the
	// query encodes under the database's own alphabet.
	alpha := s.c.db.Alphabet()
	if req.Translate {
		alpha = "dna"
	}
	q, err := toQuery(req.queryJSON, "query", alpha)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The SAM and TSV renderings only carry hits with tracebacks.
	align := req.Align || format == "sam" || format == "tsv"
	rep, err := reportFor(req.TopK, align, req.EValue)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.c.Do(r.Context(), Request{Query: q, Matrix: req.Matrix, Translate: req.Translate, Report: rep})
	if err != nil {
		writeError(w, searchStatus(r, err), err)
		return
	}
	if format == "json" {
		writeJSON(w, http.StatusOK, toSearchJSON(req.ID, res))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	// The client may be gone; nothing useful to do with the error.
	_ = WriteFormat(w, format, q, s.c.db, res, 60)
}

// batchRequest is the /batch body: queries plus response shaping; align
// and evalue apply to every query of the batch. fasta supplies queries as
// one multi-record FASTA document instead of (or in addition to) the
// queries array; its records are appended after the explicit queries.
type batchRequest struct {
	Queries []queryJSON `json:"queries"`
	FASTA   string      `json:"fasta"`
	TopK    int         `json:"top_k"`
	Align   bool        `json:"align"`
	EValue  bool        `json:"evalue"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req batchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("invalid request: %w", err))
		return
	}
	if len(req.Queries) == 0 && req.FASTA == "" {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	rep, err := reportFor(req.TopK, req.Align, req.EValue)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	alpha := s.c.db.Alphabet()
	if req.FASTA != "" {
		recs, ferr := fastaQueries(req.FASTA, alpha)
		if ferr != nil {
			writeError(w, http.StatusBadRequest, ferr)
			return
		}
		req.Queries = append(req.Queries, recs...)
	}
	reqs := make([]Request, len(req.Queries))
	for i, qj := range req.Queries {
		q, err := toQuery(qj, fmt.Sprintf("query %d", i), alpha)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		reqs[i] = Request{Query: q, Report: rep}
	}
	results, err := s.c.DoBatch(r.Context(), reqs)
	if err != nil {
		writeError(w, searchStatus(r, err), err)
		return
	}
	out := batchJSON{Results: make([]searchJSON, len(results))}
	for i, res := range results {
		out.Results[i] = toSearchJSON(req.Queries[i].ID, res)
	}
	writeJSON(w, http.StatusOK, out)
}

// fastaQueries parses a /batch request's fasta field into per-record
// queries under the database's alphabet. Records re-render to canonical
// residue letters, so a FASTA batch shares cache entries with the same
// queries submitted inline.
func fastaQueries(text, alpha string) ([]queryJSON, error) {
	seqs, err := ReadFASTA(strings.NewReader(text), alpha)
	if err != nil {
		return nil, fmt.Errorf("fasta: %w", err)
	}
	if len(seqs) == 0 {
		return nil, errors.New("fasta: no records")
	}
	out := make([]queryJSON, len(seqs))
	for i, s := range seqs {
		out[i] = queryJSON{ID: s.ID(), Residues: s.String()}
	}
	return out, nil
}

// searchStatus maps a search failure to an HTTP status: a draining
// cluster gets the retryable 503, a disconnected or timed-out client a
// request-timeout code (unsendable when truly gone, but meaningful under
// a deadline), an E-value request the database cannot satisfy the
// non-retryable 422, a request the doors' validation refused 400,
// anything else a server-side failure. Both /search and /batch route every
// failure through here so the two endpoints agree.
//
// Order matters twice over. A cluster teardown cancels in-flight waits
// through a context too, and under CloseNow the request context is often
// also dead by the time the handler observes the failure — if the bare
// "is the request context dead?" test ran first, a teardown would
// masquerade as 408 and retry-safe clients would stop retrying exactly
// when retrying is correct; so ErrClusterClosed wins. And 408 is only
// truthful when the failure actually came from the client's own
// disconnect or deadline: the error must wrap the request context's
// error, not merely coincide with a dead context. A real server-side
// failure that races a client disconnect stays a 5xx — masking it as 408
// would tell retrying clients the request was never worth finishing.
func searchStatus(r *http.Request, err error) int {
	if errors.Is(err, ErrClusterClosed) {
		return http.StatusServiceUnavailable
	}
	// A coordinator whose shard lost every live replica, or spent its
	// retry budget without a valid answer, passes the retryable condition
	// to its caller: the prober refills the replica set when a node
	// recovers, so clients should retry here too.
	if errors.Is(err, remote.ErrNoReplicas) {
		return http.StatusServiceUnavailable
	}
	if rerr := r.Context().Err(); rerr != nil && errors.Is(err, rerr) {
		return http.StatusRequestTimeout
	}
	if errors.Is(err, ErrNoSignificance) {
		return http.StatusUnprocessableEntity
	}
	if errors.Is(err, ErrBadMatrix) || errors.Is(err, ErrBadRequest) {
		// Rejected user-supplied matrix text (bad alphabet line, non-square
		// table, scores outside the 8-bit ladder's range, any matrix sent to
		// a coordinator) or a request the doors refused as malformed (a
		// translated query too short to translate, or against a DNA
		// database): a client error.
		return http.StatusBadRequest
	}
	if errors.Is(err, ErrTooManyAlignments) {
		// reportFor checks top_k against the same cap first, so this only
		// fences the library's own check; the request cannot succeed on
		// retry.
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	h := healthJSON{
		Status:        "ok",
		Sequences:     s.c.db.Len(),
		Residues:      s.c.db.Residues(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Stats:         s.c.Stats(),
	}
	if topo := s.c.Topology(); topo != nil {
		h.Topology = topo
		if topo.Uncovered() {
			h.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// reloadJSON is the /admin/reload success response.
type reloadJSON struct {
	Status     string `json:"status"`
	Generation int    `json:"generation"`
}

// handleReload is POST /admin/reload: re-read the coordinator's manifest
// and swap the serving topology onto the new shard cut (the HTTP twin of
// SIGHUP; see Cluster.ReloadManifest for the all-or-nothing semantics).
// Answers 404 on a non-distributed cluster, 409 when the incoming
// manifest fails validation or leaves a shard unowned — the old topology
// keeps serving in that case, and the body says why.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.c.Topology() == nil {
		writeError(w, http.StatusNotFound, errors.New("not a distributed coordinator"))
		return
	}
	if err := s.c.ReloadManifest(r.Context()); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, reloadJSON{Status: "ok", Generation: s.c.Topology().Generation})
}

// handleProbe is POST /admin/probe: run one synchronous health-probe
// sweep over the node roster and answer with the resulting topology
// snapshot — the operator's "re-check now" next to the background
// prober's periodic sweeps.
func (s *server) handleProbe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.c.Topology() == nil {
		writeError(w, http.StatusNotFound, errors.New("not a distributed coordinator"))
		return
	}
	if err := s.c.ProbeNodes(r.Context()); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, s.c.Topology())
}
