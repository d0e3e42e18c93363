// Package remote implements the distributed search layer's client side: the
// JSON wire types spoken between a coordinator and swserve shard nodes
// (a shard answers its K best hits and the histogram of every score below
// them, packed, see ShardSearchResponse), the shard manifest that carries
// the durable checksum identity of each cut, a retrying/hedging HTTP
// client, the health Prober that records which nodes serve which shard
// keys, and a Backend implementing core.Backend so a remote shard slots
// into the dispatcher exactly like the local host, routing each request to
// the prober's current owners of its key.
//
// The protocol is deliberately small — two endpoints on every node:
//
//	GET  /shards        which shard keys this node owns
//	POST /shard/search  score a search's queries over one shard (top-K hits and the histogram below them, packed)
//
// Nodes only score and select, each subject's best score over a search's
// queries (a translated query's frames). The coordinator selects the top K
// over the union of the shards' hits, fits E-values over the sum of their
// histograms, and traces its hits back itself, over the parent index it
// already maps, so a query costs one round trip per shard.
//
// Shards are addressed by their .swdb checksum key (index.Key), never by
// file path: the key is content-derived, so a coordinator and a node that
// disagree about a shard's bytes can never silently mis-merge scores.
//
// Error contract: a node answers 503 only for retryable conditions (the
// node is draining or closed); every other failure status is terminal for
// that request. A 200 whose body fails to decode or to check is a failed
// replica, as a dropped connection is, and marks its node (see
// Prober.Owners). The client's retry and hedging policy keys off exactly
// these distinctions — see Retryable.
package remote

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"heterosw/internal/core"
	"heterosw/internal/stats"
)

// ShardInfo describes one shard a node owns.
type ShardInfo struct {
	// Key is the shard's content identity: the checksum key of its .swdb
	// index (index.Key), matching the manifest entry it was cut under.
	Key string `json:"key"`
	// Sequences and Residues size the shard.
	Sequences int   `json:"sequences"`
	Residues  int64 `json:"residues"`
}

// ShardsResponse is the GET /shards discovery document.
type ShardsResponse struct {
	// Alphabet names the shards' residue alphabet ("protein" or "dna").
	Alphabet string `json:"alphabet"`
	// Shards lists every shard this node serves.
	Shards []ShardInfo `json:"shards"`
}

// ShardSearchRequest is the POST /shard/search body: one search's queries
// scored over one shard.
type ShardSearchRequest struct {
	// Shard is the target shard's checksum key; unknown keys answer 404.
	Shard string `json:"shard"`
	// ID labels the search (diagnostics only; it does not affect scores).
	ID string `json:"id,omitempty"`
	// Queries holds each query's residues pre-encoded under the shard's
	// alphabet (alphabet.Code bytes, base64 in JSON): one for a direct
	// search, the reading frames of a translated one. Shipping codes
	// rather than letters makes the round trip loss-free: the encoding is
	// injective, so the node's cache keys dedup exactly like local ones.
	Queries [][]byte `json:"queries"`
	// K is the coordinator's K, the hits the node answers with (see
	// ShardSearchResponse); 0 asks for every subject, and a negative K
	// answers 400. A node caches one answer per query list and K.
	K int `json:"k"`
}

// ShardSearchResponse is a shard's answer to a top-K search, core.Answer
// on the wire, over each subject's best score across the queries. Hits are
// every subject scoring at or above the shard's K-th best score, ties with
// the K-th kept, in increasing shard index; Below is the histogram of
// every lower score. Together they cover the shard exactly once, so the
// coordinator selects the top K over the shards' hits and fits its
// E-values over the summed histogram, both exactly as over the whole score
// list. With K = 0 every subject is a hit and Below is empty. A top-10
// answer over an 8,000-subject shard is a few hundred bytes.
type ShardSearchResponse struct {
	// Shard echoes the request's shard key, so an answer names the shard
	// it scored.
	Shard string `json:"shard"`
	// Scoring is the node's core.SearchOptions.ScoringID: the matrix and
	// gap penalties it scored under.
	Scoring string  `json:"scoring"`
	Hits    HitList `json:"hits"`
	Below   Counts  `json:"below"`
	// Cells counts useful DP cell updates (the queries' summed length x
	// shard residues); summed across shards it reproduces the single-node
	// cell count exactly, whatever the cut.
	Cells int64 `json:"cells"`
	// WallSeconds is the node-local wall time of the execution that
	// produced this result (cache hits repeat the original search's).
	WallSeconds float64 `json:"wall_seconds"`
	Overflows   int64   `json:"overflows,omitempty"`
	Overflows8  int64   `json:"overflows8,omitempty"`
	// OverflowCells counts the cells the node's ladder escalations
	// recomputed; the coordinator sums it into its own accounting.
	OverflowCells int64 `json:"overflow_cells,omitempty"`
}

// check fails an answer that cannot be the shard's answer to req under
// the coordinator's scoring: another shard's key or none, another scoring
// ID, cells other than the queries' summed length x residues, a hit index
// at or beyond the shard's n sequences or not above the one before, a hit
// query index outside req.Queries, a hit score outside [0,
// stats.MaxScore], fewer than min(K, n) hits (n for K = 0), a Below bucket
// at or above the lowest hit score (a dropped tie), or hits and Below that
// do not count n subjects.
func (r *ShardSearchResponse) check(req *ShardSearchRequest, n int, residues int64, scoring string) error {
	if r.Shard != req.Shard {
		return fmt.Errorf("answer for shard %q to a search of shard %s", r.Shard, req.Shard)
	}
	if r.Scoring != scoring {
		return fmt.Errorf("answer scored under %q, not the coordinator's %q: node and coordinator are configured apart", r.Scoring, scoring)
	}
	qlen := 0
	for _, q := range req.Queries {
		qlen += len(q)
	}
	if cells := int64(qlen) * residues; r.Cells != cells {
		return fmt.Errorf("%d cells for %d query residues over the %d-residue shard %s",
			r.Cells, qlen, residues, req.Shard)
	}
	lowest := int32(stats.MaxScore)
	for i, h := range r.Hits {
		switch {
		case int(h.Index) >= n:
			return fmt.Errorf("hit index %d in the %d-sequence shard %s", h.Index, n, req.Shard)
		case i > 0 && h.Index <= r.Hits[i-1].Index:
			return fmt.Errorf("hit indices %d then %d do not strictly increase", r.Hits[i-1].Index, h.Index)
		case h.Query < 0 || int(h.Query) >= len(req.Queries):
			return fmt.Errorf("hit query index %d for %d queries", h.Query, len(req.Queries))
		case h.Score < 0 || h.Score > stats.MaxScore:
			return fmt.Errorf("hit score %d outside [0, %d]", h.Score, stats.MaxScore)
		}
		lowest = min(lowest, h.Score)
	}
	want := n
	if req.K > 0 {
		want = min(req.K, n)
	}
	if len(r.Hits) < want {
		return fmt.Errorf("%d hits for a top-%d search of the %d-sequence shard %s", len(r.Hits), req.K, n, req.Shard)
	}
	if len(r.Below) > int(lowest) {
		return fmt.Errorf("a below bucket at score %d, at or above the lowest hit score %d: a dropped tie", len(r.Below)-1, lowest)
	}
	covered := len(r.Hits)
	for _, c := range r.Below {
		covered += c
	}
	if covered != n {
		return fmt.Errorf("%d hits and %d below them for the %d-sequence shard %s", len(r.Hits), covered-len(r.Hits), n, req.Shard)
	}
	return nil
}

// HitList is an answer's hits on the wire: a JSON string holding the
// standard base64 of one unsigned LEB128 varint triple per hit, the
// index's step from the hit before (from 0 for the first), uint32(score)
// and uint32(query index). A step and a score below 128 cost a byte each,
// and a query index one.
type HitList []core.ShardHit

// MarshalJSON implements json.Marshaler.
func (l HitList) MarshalJSON() ([]byte, error) {
	packed := make([]byte, 0, 5*len(l)) // most triples pack in five bytes
	prev := int32(0)
	for _, h := range l {
		packed = binary.AppendUvarint(packed, uint64(uint32(h.Index-prev)))
		packed = binary.AppendUvarint(packed, uint64(uint32(h.Score)))
		packed = binary.AppendUvarint(packed, uint64(uint32(h.Query)))
		prev = h.Index
	}
	return base64String(packed), nil
}

// UnmarshalJSON implements json.Unmarshaler. A partial triple and an
// index beyond 31 bits are errors on top of unpack's.
func (l *HitList) UnmarshalJSON(data []byte) error {
	v, err := unpack(data, "hits")
	if err != nil {
		return err
	}
	if len(v)%3 != 0 {
		return errors.New("remote: hits: a hit without its score or query")
	}
	out := make(HitList, len(v)/3)
	index := uint64(0)
	for i := range out {
		if index += uint64(v[3*i]); index > math.MaxInt32 {
			return errors.New("remote: hits: index beyond 31 bits")
		}
		out[i] = core.ShardHit{Index: int32(index), Score: int32(v[3*i+1]), Query: int32(v[3*i+2])}
	}
	*l = out
	return nil
}

// Counts is an answer's Below histogram on the wire: a JSON string holding
// the standard base64 of one unsigned LEB128 varint per bucket.
type Counts []int

// MarshalJSON implements json.Marshaler.
func (c Counts) MarshalJSON() ([]byte, error) {
	packed := make([]byte, 0, 2*len(c))
	for _, n := range c {
		packed = binary.AppendUvarint(packed, uint64(uint32(n)))
	}
	return base64String(packed), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *Counts) UnmarshalJSON(data []byte) error {
	v, err := unpack(data, "below")
	if err != nil {
		return err
	}
	out := make(Counts, len(v))
	for i, n := range v {
		out[i] = int(n)
	}
	*c = out
	return nil
}

// base64String is packed as a JSON string of its standard base64.
func base64String(packed []byte) []byte {
	out := make([]byte, base64.StdEncoding.EncodedLen(len(packed))+2)
	out[0], out[len(out)-1] = '"', '"'
	base64.StdEncoding.Encode(out[1:len(out)-1], packed)
	return out
}

// unpack decodes field what of an answer, a JSON string of base64 packed
// varints, exactly one value per terminal byte (< 0x80), so a body
// allocates at most one value per byte it carries. Any value but a string
// (a number array, null), bad base64, a truncated or overlong varint and a
// value beyond 32 bits are errors. Only the shortest encoding of each value
// is accepted, so what decodes re-encodes to the same bytes.
func unpack(data []byte, what string) ([]uint32, error) {
	if len(data) == 0 || data[0] != '"' {
		return nil, fmt.Errorf("remote: %s: not a base64 string", what)
	}
	var packed []byte
	if err := json.Unmarshal(data, &packed); err != nil {
		return nil, fmt.Errorf("remote: %s: %w", what, err)
	}
	if len(packed) > 0 && packed[len(packed)-1] >= 0x80 {
		return nil, fmt.Errorf("remote: %s: truncated varint", what)
	}
	n := 0
	for _, b := range packed {
		if b < 0x80 {
			n++
		}
	}
	out := make([]uint32, n)
	for i := range out {
		if b := packed[0]; b < 0x80 {
			out[i], packed = uint32(b), packed[1:]
			continue
		}
		v, w := binary.Uvarint(packed)
		switch {
		case w <= 0 || w > 5 || packed[w-1] == 0:
			return nil, fmt.Errorf("remote: %s: overlong varint", what)
		case v > math.MaxUint32:
			return nil, fmt.Errorf("remote: %s: varint exceeds 32 bits", what)
		}
		out[i], packed = uint32(v), packed[w:]
	}
	return out, nil
}

// errorJSON mirrors the server's error body.
type errorJSON struct {
	Error string `json:"error"`
}

// ErrNoReplicas reports a shard request no replica answered validly: the
// shard has no live owner, or every attempt failed retryably (the error
// then wraps the last failure too). It is retryable by classification —
// the prober readopts a recovering node, whose shards route again without
// a coordinator restart — so front ends map it to 503, telling clients to
// retry exactly as they would against a draining node.
var ErrNoReplicas = errors.New("remote: no live replicas")

// StatusError is a non-200 node answer, carrying the HTTP status the
// retry policy classifies on.
type StatusError struct {
	Code int
	Msg  string
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("remote: node answered %d", e.Code)
	}
	return fmt.Sprintf("remote: node answered %d: %s", e.Code, e.Msg)
}

// Retryable reports whether a node failure may succeed on retry (against
// the same node later, or another replica now). Transport-level failures —
// connection refused or reset, a per-attempt timeout — are retryable: the
// node may be restarting, and replicas exist exactly for this. So is a
// 200 that fails its decode or check: another replica may answer right.
// Of the HTTP statuses only 503 is: it is the one status nodes reserve
// for "healthy request, unavailable node" (draining, shard cluster
// closed). Everything else — 400s, 404 unknown shard, 500 — reports a
// request that cannot succeed as posed, and retrying would only amplify
// the failure. ErrNoReplicas is retryable too: the prober readopts a
// shard's owner when the node recovers.
func Retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusServiceUnavailable
	}
	return true
}
