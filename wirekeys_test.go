package heterosw

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"heterosw/internal/alphabet"
	"heterosw/internal/remote"
)

// The wire-key pins: every JSON body the servers write must keep its keys,
// in their order, whatever Go types produce it. Each test below walks the
// tokens of a real response and compares the key list of every object.

// wireKeys lists the keys of every object in a JSON document, one line per
// distinct object shape, in first-seen pre-order: the object's path ("$"
// for the root, "[]" for an array element), then its keys in order.
func wireKeys(t *testing.T, body []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	lines, err := walkKeys(dec, "$")
	if err != nil {
		t.Fatalf("walk %s: %v", body, err)
	}
	var out []string
	seen := map[string]bool{}
	for _, l := range lines {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

func walkKeys(dec *json.Decoder, path string) ([]string, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	var lines []string
	switch tok {
	case json.Delim('{'):
		var keys, children []string
		for dec.More() {
			k, err := dec.Token()
			if err != nil {
				return nil, err
			}
			key := k.(string)
			keys = append(keys, key)
			sub, err := walkKeys(dec, path+"."+key)
			if err != nil {
				return nil, err
			}
			children = append(children, sub...)
		}
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
		lines = append([]string{path + " {" + strings.Join(keys, ",") + "}"}, children...)
	case json.Delim('['):
		for dec.More() {
			sub, err := walkKeys(dec, path+"[]")
			if err != nil {
				return nil, err
			}
			lines = append(lines, sub...)
		}
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
	}
	return lines, nil
}

func checkWireKeys(t *testing.T, what string, body []byte, want []string) {
	t.Helper()
	if got := wireKeys(t, body); !reflect.DeepEqual(got, want) {
		t.Errorf("%s keys changed\n--- got ---\n%s\n--- want ---\n%s", what, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestHTTPWireKeys pins the keys of POST /search, aligned with E-values and
// translated, and of GET /healthz.
func TestHTTPWireKeys(t *testing.T) {
	_, query, cl := goldenSetup(t)
	ts := httptest.NewServer(NewHTTPHandler(cl))
	t.Cleanup(func() { ts.Close(); cl.CloseNow() })

	resp, body := postJSON(t, ts.URL+"/search", map[string]any{
		"id": query.ID(), "residues": query.String(), "top_k": 5, "align": true, "evalue": true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("/search: status %d: %s", resp.StatusCode, body)
	}
	checkWireKeys(t, "/search align+evalue", body, []string{
		"$ {id,hits,significance,cells,wall_seconds}",
		"$.hits[] {index,id,score,alignment,bit_score,evalue}",
		"$.hits[].alignment {query_start,query_end,subject_start,subject_end,cigar,identities,columns}",
	})

	dna := goldenRevComp(t, goldenBackTranslate(t, query.String()))
	resp, body = postJSON(t, ts.URL+"/search", map[string]any{
		"id": "rc", "residues": dna, "top_k": 5, "align": true, "translate": true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("/search translate: status %d: %s", resp.StatusCode, body)
	}
	// The top hit's segment starts at nucleotide 0, which omits
	// query_dna_start (omitempty); the next ones carry both DNA keys.
	checkWireKeys(t, "/search translate", body, []string{
		"$ {id,hits,cells,wall_seconds}",
		"$.hits[] {index,id,score,frame,alignment}",
		"$.hits[].alignment {query_start,query_end,subject_start,subject_end,query_dna_end,cigar,identities,columns}",
		"$.hits[].alignment {query_start,query_end,subject_start,subject_end,query_dna_start,query_dna_end,cigar,identities,columns}",
	})

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil || hr.StatusCode != 200 {
		t.Fatalf("/healthz: status %d, %v: %s", hr.StatusCode, err, body)
	}
	checkWireKeys(t, "/healthz", body, []string{
		"$ {status,sequences,residues,uptime_seconds,queries,tracebacks,vec_backend,backends,scheduler,cache,ladder}",
		"$.vec_backend {backend,avx2,forced,lanes16,lanes8}",
		"$.backends[] {name,device,workers,grants,residues,cells,wall_seconds}",
		"$.scheduler {submitted,joined,cache_hits}",
		"$.cache {hits,misses,entries}",
		"$.ladder {escalated_8to16,escalated_16to32,escalated_cells}",
	})
}

// TestCoordinatorWireKeys pins the keys of a shard node's /shard/search
// answer, the body a coordinator decodes, and its Content-Length, in the
// every-hit form and at K = 10, where the answer is under 1 KB; that a
// negative K answers 400; that /shard/search answers the
// retryable 503 once the node is closed; and that the node serves no
// /shard/align.
func TestCoordinatorWireKeys(t *testing.T) {
	_, _, shardPaths, queries := distribSetup(t)
	node, ss := startShardNode(t, shardPaths, nil)
	var shards remote.ShardsResponse
	hr, err := http.Get(node.URL + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(hr.Body).Decode(&shards)
	hr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	planted := queries[0]
	codes := alphabet.BytesView(planted.impl.Residues)
	escalated := false
	var search remote.ShardSearchRequest
	for _, sh := range shards.Shards {
		for _, k := range []int{0, 10} {
			search = remote.ShardSearchRequest{Shard: sh.Key, ID: planted.ID(), Queries: [][]byte{codes}, K: k}
			resp, body := postJSON(t, node.URL+"/shard/search", search)
			if resp.StatusCode != 200 {
				t.Fatalf("/shard/search: status %d: %s", resp.StatusCode, body)
			}
			// A sized answer is read into one buffer (remote's readBody).
			if resp.ContentLength != int64(len(body)) {
				t.Fatalf("/shard/search: Content-Length %d for a %d B body", resp.ContentLength, len(body))
			}
			var sr remote.ShardSearchResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Shard != sh.Key {
				t.Fatalf("answer names shard %q, want the searched %q", sr.Shard, sh.Key)
			}
			// The omitempty ladder counters appear only on the shard holding
			// the planted homolog, whose byte lane saturates.
			want := "$ {shard,scoring,hits,below,cells,wall_seconds}"
			if sr.Overflows8 > 0 {
				escalated = true
				want = "$ {shard,scoring,hits,below,cells,wall_seconds,overflows8,overflow_cells}"
			}
			checkWireKeys(t, "/shard/search", body, []string{want})
			if k > 0 && len(body) >= 1<<10 {
				t.Errorf("a top-%d answer over the %d-sequence shard is %d B, want under 1 KB", k, sh.Sequences, len(body))
			}
		}
	}
	if !escalated {
		t.Error("no shard escalated a byte lane: the ladder counters went unpinned")
	}

	neg := search
	neg.K = -1
	if resp, body := postJSON(t, node.URL+"/shard/search", neg); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/shard/search with k -1: status %d, want 400: %s", resp.StatusCode, body)
	}

	// Tracebacks run on the coordinator: the node has no endpoint for them.
	resp, body := postJSON(t, node.URL+"/shard/align", search)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/shard/align: status %d, want 404: %s", resp.StatusCode, body)
	}

	// The last search again, refused once the node is closed.
	ss.CloseNow()
	resp, body = postJSON(t, node.URL+"/shard/search", search)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), ErrClusterClosed.Error()) {
		t.Fatalf("/shard/search after CloseNow: status %d: %s", resp.StatusCode, body)
	}
}
