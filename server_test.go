package heterosw

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

func testServer(t *testing.T) (*httptest.Server, *Cluster, *Database) {
	t.Helper()
	db, _ := tinyDB(t)
	cl, err := NewCluster(db, ClusterOptions{Dist: "dynamic"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(cl))
	t.Cleanup(func() { ts.Close(); cl.CloseNow() })
	return ts, cl, db
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPSearch(t *testing.T) {
	db, _ := tinyDB(t)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.CloseNow()
	// The HTTP path must agree with the direct search of every hit, hit
	// for hit, over exactly top_k hits.
	direct, err := cl.Search(NewSequence("q1", "MKWVLA"))
	if err != nil {
		t.Fatal(err)
	}
	const topK = 2 // below the database
	ts := httptest.NewServer(NewHTTPHandler(cl))
	defer ts.Close()
	check := func(endpoint string, body []byte, sr searchJSON) {
		t.Helper()
		if sr.ID != "q1" || len(sr.Hits) != topK {
			t.Fatalf("%s: response %s", endpoint, body)
		}
		for i, h := range sr.Hits {
			if w := direct.Hits[i]; h.Index != w.Index || h.ID != w.ID || h.Score != w.Score {
				t.Fatalf("%s: hit %d is %+v, direct search has %+v", endpoint, i, h, w)
			}
		}
	}
	resp, body := postJSON(t, ts.URL+"/search", map[string]any{
		"id": "q1", "residues": "MKWVLA", "top_k": topK,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr searchJSON
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad body %s: %v", body, err)
	}
	check("/search", body, sr)
	resp, body = postJSON(t, ts.URL+"/batch", map[string]any{
		"queries": []queryJSON{{ID: "q1", Residues: "MKWVLA"}}, "top_k": topK,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var br batchJSON
	if err := json.Unmarshal(body, &br); err != nil || len(br.Results) != 1 {
		t.Fatalf("bad batch body %s: %v", body, err)
	}
	check("/batch", body, br.Results[0])
}

func TestHTTPBatchOrderAndHealthz(t *testing.T) {
	ts, _, db := testServer(t)
	queries := []map[string]any{
		{"id": "a", "residues": "MKWVLA"},
		{"id": "b", "residues": "CCQEGH"},
		{"id": "a2", "residues": "MKWVLA"}, // repeat: joins or hits the cache
	}
	resp, body := postJSON(t, ts.URL+"/batch", map[string]any{"queries": queries, "top_k": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchJSON
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("%d results", len(br.Results))
	}
	for i, want := range []string{"a", "b", "a2"} {
		if br.Results[i].ID != want {
			t.Fatalf("result %d is %q, want %q (order lost)", i, br.Results[i].ID, want)
		}
	}
	if br.Results[0].Hits[0].ID != br.Results[2].Hits[0].ID {
		t.Fatal("repeated query diverged across the batch")
	}

	// Responses carry what the host did and nothing of the device model.
	if bytes.Contains(body, []byte("sim_")) || !bytes.Contains(body, []byte(`"wall_seconds"`)) {
		t.Fatalf("/batch body: %s", body)
	}

	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	raw, err := io.ReadAll(hres.Body)
	if err != nil {
		t.Fatal(err)
	}
	var h healthJSON
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sequences != db.Len() || h.Residues != db.Residues() {
		t.Fatalf("healthz %+v", h)
	}
	if h.Queries < 2 {
		t.Fatalf("healthz reports %d queries, want >= 2", h.Queries)
	}
	if h.Scheduler.Submitted < 3 {
		t.Fatalf("healthz scheduler %+v", h.Scheduler)
	}
	// One host backend, whose cells over wall_seconds is the wall rate.
	if len(h.Backends) != 1 {
		t.Fatalf("healthz backends %+v", h.Backends)
	}
	b := h.Backends[0]
	if b.Name != "host" || b.Device != "host" || b.Workers != runtime.GOMAXPROCS(0) ||
		b.Grants != h.Queries || b.Residues != h.Queries*db.Residues() ||
		b.Cells != 6*b.Residues || b.WallSeconds <= 0 {
		t.Fatalf("healthz host backend %+v after %d 6-residue queries", b, h.Queries)
	}
	var shape struct {
		Backends []map[string]any `json:"backends"`
	}
	if err := json.Unmarshal(raw, &shape); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range shape.Backends[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "cells device grants name residues wall_seconds workers"; got != want {
		t.Fatalf("healthz backend fields %q, want %q", got, want)
	}
}

// /healthz counts the ladder escalations of the searches actually computed:
// a subject over the byte rail escalates once, and the cached repeat of the
// query adds nothing.
func TestHealthzLadder(t *testing.T) {
	w := strings.Repeat("W", 22) + "CA" // self-score 255, the byte rail
	db, err := NewDatabase([]Sequence{NewSequence("sat", w), NewSequence("tiny", "ARND")})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(db, ClusterOptions{Dist: "dynamic"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(cl))
	defer func() { ts.Close(); cl.CloseNow() }()
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/search", map[string]any{"residues": w}); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var h healthJSON
	if err := json.NewDecoder(hres.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Ladder.Escalated8 != 1 || h.Ladder.Escalated16 != 0 || h.Ladder.EscalatedCells != 24*24 {
		t.Fatalf("healthz ladder %+v, want one 8->16 escalation of %d cells", h.Ladder, 24*24)
	}
	if h.Cache.Hits != 1 {
		t.Fatalf("healthz cache %+v, want the repeat served from it", h.Cache)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _, _ := testServer(t)
	cases := []struct {
		path   string
		body   string
		status int
	}{
		{"/search", `{"residues":""}`, http.StatusBadRequest},
		{"/search", `{bad json`, http.StatusBadRequest},
		{"/search", `{"residues":"MKV","unknown_field":1}`, http.StatusBadRequest},
		{"/batch", `{"queries":[]}`, http.StatusBadRequest},
		{"/batch", `{"queries":[{"residues":""}]}`, http.StatusBadRequest},
		// Response-shaping validation: negative and absurd top_k, and an
		// aligned report over the traceback cap, are client errors.
		{"/search", `{"residues":"MKV","top_k":-1}`, http.StatusBadRequest},
		{"/search", `{"residues":"MKV","top_k":10001}`, http.StatusBadRequest},
		{"/search", `{"residues":"MKV","top_k":65,"align":true}`, http.StatusBadRequest},
		{"/batch", `{"queries":[{"residues":"MKV"}],"top_k":-5}`, http.StatusBadRequest},
		{"/batch", `{"queries":[{"residues":"MKV"}],"top_k":65,"align":true}`, http.StatusBadRequest},
		// top_k exactly at the align cap is fine.
		{"/search", `{"residues":"MKV","top_k":64,"align":true}`, http.StatusOK},
		// An E-value fit over the 4-sequence test database cannot work:
		// the non-retryable 422, not a hard 500.
		{"/search", `{"residues":"MKV","evalue":true}`, http.StatusUnprocessableEntity},
		{"/batch", `{"queries":[{"residues":"MKV"}],"evalue":true}`, http.StatusUnprocessableEntity},
		// Two nucleotides hold no codon: nothing to translate is the
		// client's input, not a server failure.
		{"/search", `{"residues":"AC","translate":true}`, http.StatusBadRequest},
		{"/search", `{"residues":"ATGAAATGG","translate":true}`, http.StatusOK},
	}
	post := func(url, body string) int {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range cases {
		if got := post(ts.URL+tc.path, tc.body); got != tc.status {
			t.Errorf("POST %s %q: status %d, want %d", tc.path, tc.body, got, tc.status)
		}
	}
	// A translated request against a DNA database is the client's error
	// too: translation needs a protein database.
	dnaDB, err := NewDatabase([]Sequence{NewDNASequence("g1", "ATGAAATGGGTACTG"), NewDNASequence("g2", "CCGGTTAA")})
	if err != nil {
		t.Fatal(err)
	}
	dna, err := NewCluster(dnaDB, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dts := httptest.NewServer(NewHTTPHandler(dna))
	defer func() { dts.Close(); dna.CloseNow() }()
	if got := post(dts.URL+"/search", `{"residues":"ATGAAATGG","translate":true}`); got != http.StatusBadRequest {
		t.Errorf("translated search of a DNA database: status %d, want 400", got)
	}
	// Method checks.
	if resp, err := http.Get(ts.URL + "/search"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /search: status %d", resp.StatusCode)
		}
	}
	if resp, err := http.Post(ts.URL+"/healthz", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /healthz: status %d", resp.StatusCode)
		}
	}
}

// An oversize request body must be refused with 413, on both endpoints.
func TestHTTPOversizeBody(t *testing.T) {
	ts, _, _ := testServer(t)
	huge := `{"residues":"` + strings.Repeat("A", maxRequestBytes+1) + `"}`
	for _, path := range []string{"/search", "/batch"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversize: status %d, want 413", path, resp.StatusCode)
		}
	}
}

// An aligned /batch over a database large enough for the E-value fit
// returns per-query decorations in request order, and healthz accounts
// the traceback phase.
func TestHTTPBatchAligned(t *testing.T) {
	db, _ := SyntheticSwissProt(0.0001, false) // 54 sequences: fit viable
	cl, err := NewCluster(db, ClusterOptions{Dist: "dynamic"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(cl))
	t.Cleanup(func() { ts.Close(); cl.CloseNow() })

	resp, body := postJSON(t, ts.URL+"/batch", map[string]any{
		"queries": []map[string]any{
			{"id": "a", "residues": "MKWVLAARNDCCQEGHIL"},
			{"id": "b", "residues": "WYVKMFPSTWYVARNDAR"},
		},
		"top_k": 3, "align": true, "evalue": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchJSON
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 || br.Results[0].ID != "a" || br.Results[1].ID != "b" {
		t.Fatalf("results %+v", br.Results)
	}
	for _, sr := range br.Results {
		if sr.Significance == "" || len(sr.Hits) != 3 {
			t.Fatalf("query %s: significance %q, %d hits", sr.ID, sr.Significance, len(sr.Hits))
		}
		for _, h := range sr.Hits {
			if h.Alignment == nil || h.Alignment.CIGAR == "" || h.BitScore == nil || h.EValue == nil {
				t.Fatalf("query %s hit %s missing decorations: %+v", sr.ID, h.ID, h)
			}
		}
	}

	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var h healthJSON
	if err := json.NewDecoder(hres.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Tracebacks != 6 { // 2 queries x top_k 3, never the whole database
		t.Fatalf("healthz records %d tracebacks, want 6", h.Tracebacks)
	}
}

// Concurrent HTTP clients must share the cluster's scheduler and
// all receive correct answers. Run under -race in CI.
func TestHTTPConcurrentClients(t *testing.T) {
	ts, cl, _ := testServer(t)
	want, err := cl.Search(NewSequence("q", "MKWVLA"))
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/search", "application/json",
				bytes.NewReader([]byte(fmt.Sprintf(`{"id":"c%d","residues":"MKWVLA","top_k":1}`, i))))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var sr searchJSON
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				errs <- err
				return
			}
			if len(sr.Hits) != 1 || sr.Hits[0].ID != want.Hits[0].ID || sr.Hits[0].Score != want.Hits[0].Score {
				errs <- fmt.Errorf("client %d got %+v", i, sr.Hits)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cl.CacheStats().Hits == 0 {
		st := cl.SchedulerStats()
		if st.Joined == 0 {
			t.Fatalf("identical concurrent requests neither joined nor hit the cache: %+v", st)
		}
	}
}

// A draining cluster answers both endpoints with the retryable 503, not a
// hard 500.
func TestHTTPClosedCluster(t *testing.T) {
	ts, cl, _ := testServer(t)
	cl.CloseNow()
	resp, body := postJSON(t, ts.URL+"/search", map[string]any{"residues": "MKWVLA"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/search on closed cluster: status %d (%s), want 503", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/batch", map[string]any{
		"queries": []map[string]any{{"residues": "MKWVLA"}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/batch on closed cluster: status %d (%s), want 503", resp.StatusCode, body)
	}
}

// A client that disconnects mid-request must not break the server or leak
// its wait; the computation completes into the cache.
func TestHTTPClientDisconnect(t *testing.T) {
	ts, cl, _ := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search",
		bytes.NewReader([]byte(`{"residues":"MKWVLAARND"}`)))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("cancelled request succeeded")
	}
	// The server keeps serving.
	resp, body := postJSON(t, ts.URL+"/search", map[string]any{"residues": "MKWVLAARND"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after disconnect: %s", resp.StatusCode, body)
	}
	_ = cl
}

// TestHTTPMatrixErrors pins the user-matrix contract: every way submitted
// matrix text can be rejected maps to 400 with the sentinel family visible
// at the library layer (errors.Is on ErrBadMatrix and the specific mode).
func TestHTTPMatrixErrors(t *testing.T) {
	ts, cl, _ := testServer(t)
	cases := []struct {
		name   string
		matrix string
		want   error
	}{
		{"bad-alphabet-header", "A 1 C\nA 4 0 0\n", ErrBadMatrixAlphabet},
		{"bad-alphabet-row", "A C\n1 4 0\n", ErrBadMatrixAlphabet},
		{"not-square", "A C\nA 4\n", ErrMatrixNotSquare},
		{"asymmetric", "A C\nA 4 1\nC 2 4\n", ErrMatrixNotSquare},
		{"empty", "# only a comment\n", ErrMatrixNotSquare},
		{"score-overflow", "A\nA 999\n", ErrMatrixScoreRange},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/search", map[string]any{
				"residues": "MKWVLA", "matrix": tc.matrix,
			})
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", resp.StatusCode, body)
			}
			// The same text through the library surfaces the typed sentinels.
			_, err := cl.Do(context.Background(), Request{Query: NewSequence("q", "MKWVLA"), Matrix: tc.matrix})
			if !errors.Is(err, ErrBadMatrix) {
				t.Fatalf("Do error %v does not wrap ErrBadMatrix", err)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Do error %v does not wrap %v", err, tc.want)
			}
		})
	}
}

// A well-formed user matrix flows through /search and changes scoring: an
// identity-only matrix collapses every alignment to exact residue runs.
func TestHTTPMatrixCustom(t *testing.T) {
	ts, _, _ := testServer(t)
	matrix := "# match-only\nM K W V L A\nM 9 -9 -9 -9 -9 -9\nK -9 9 -9 -9 -9 -9\nW -9 -9 9 -9 -9 -9\nV -9 -9 -9 9 -9 -9\nL -9 -9 -9 -9 9 -9\nA -9 -9 -9 -9 -9 9\n"
	resp, body := postJSON(t, ts.URL+"/search", map[string]any{
		"id": "q", "residues": "MKWVLA", "matrix": matrix, "top_k": 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr searchJSON
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	// 6 exact residues x 9 under the custom matrix; BLOSUM62 scores this
	// pairing 34, so the request-scoped matrix demonstrably applied.
	if len(sr.Hits) != 1 || sr.Hits[0].Score != 54 {
		t.Fatalf("custom-matrix top hit %+v, want score 54", sr.Hits)
	}
}

// TestHTTPFormats pins the format field: blast/sam/tsv return text/plain
// renderings, unknown formats are client errors, and json stays default.
func TestHTTPFormats(t *testing.T) {
	ts, _, _ := testServer(t)
	for _, format := range []string{"blast", "sam", "tsv"} {
		resp, body := postJSON(t, ts.URL+"/search", map[string]any{
			"id": "q1", "residues": "MKWVLA", "top_k": 2, "format": format,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("format=%s: status %d: %s", format, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("format=%s: content type %q", format, ct)
		}
		if json.Valid(body) {
			t.Fatalf("format=%s returned JSON: %s", format, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/search", map[string]any{
		"residues": "MKWVLA", "format": "xml",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml: status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestHTTPBatchFASTA pins the fasta body field on /batch: records parse
// under the database alphabet, mix with explicit queries, and order is
// queries-then-fasta.
func TestHTTPBatchFASTA(t *testing.T) {
	ts, _, _ := testServer(t)
	fasta := ">f1 first\nMKWVLA\n>f2 second\nCCQEGH\n"
	resp, body := postJSON(t, ts.URL+"/batch", map[string]any{
		"queries": []map[string]any{{"id": "e1", "residues": "WYVKMF"}},
		"fasta":   fasta,
		"top_k":   1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchJSON
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("%d results, want 3", len(br.Results))
	}
	for i, want := range []string{"e1", "f1", "f2"} {
		if br.Results[i].ID != want {
			t.Fatalf("result %d is %q, want %q", i, br.Results[i].ID, want)
		}
	}
	// Malformed FASTA is a client error.
	resp, body = postJSON(t, ts.URL+"/batch", map[string]any{"fasta": "no header\n"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fasta: status %d (%s), want 400", resp.StatusCode, body)
	}
}
