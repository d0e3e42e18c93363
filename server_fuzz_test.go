package heterosw

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSearchRequest posts arbitrary /search bodies — residues, top_k,
// align, evalue, format, translate and matrix — to the JSON handler over
// the four-sequence test database. Whatever the client sends, the server
// must neither panic nor answer 500: a malformed request is a 4xx. A 200
// JSON answer must decode and carry at most top_k hits (10 when unset).
func FuzzSearchRequest(f *testing.F) {
	db, _ := tinyDB(f)
	cl, err := NewCluster(db, ClusterOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(cl.CloseNow)
	h := NewHTTPHandler(cl)

	matrix := matchOnlyMatrix(9, "match-only")
	f.Add("MKWVLA", 3, false, false, "", false, "")
	f.Add("MKWVLAARND", 2, true, false, "sam", false, "")
	f.Add("MKWVLA", 1, false, false, "json", false, matrix) // a request-scoped matrix
	f.Add("AC", 0, false, false, "", true, "")              // too short to translate
	f.Add("ATGAAATGGGTACTGGCT", 4, true, false, "blast", true, matrix)
	f.Add("MKV", 0, false, true, "tsv", false, "")         // no significance fit over 4 sequences
	f.Add("MKV", 65, true, false, "", false, "A\nA 999\n") // over the align cap; a bad matrix
	f.Add("", -1, false, false, "xml", false, "")
	f.Fuzz(func(t *testing.T, residues string, topK int, align, evalue bool, format string, translate bool, matrix string) {
		body, err := json.Marshal(map[string]any{
			"residues": residues, "top_k": topK, "align": align, "evalue": evalue,
			"format": format, "translate": translate, "matrix": matrix,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d for %s: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusOK || (format != "" && format != "json") {
			return
		}
		var sr SearchJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Fatalf("200 body for %s does not decode: %v\n%s", body, err, rec.Body)
		}
		want := topK
		if want == 0 {
			want = defaultResponseHits
		}
		if len(sr.Hits) > want {
			t.Fatalf("%d hits for top_k %d: %s", len(sr.Hits), topK, body)
		}
	})
}
