// Package remote implements the distributed search layer's client side: the
// JSON wire types spoken between a coordinator and swserve shard nodes
// (a shard's score list travels packed, see ScoreList), the
// shard manifest that carries the durable checksum identity of each cut, a
// retrying/hedging HTTP client, the health Prober that records which nodes
// serve which shard keys, and a Backend implementing core.Backend so a
// remote shard slots into the dispatcher exactly like the local host,
// routing each request to the prober's current owners of its key.
//
// The protocol is deliberately small — three endpoints on every node:
//
//	GET  /shards        which shard keys this node owns
//	POST /shard/search  score one query over one shard (full score list, packed)
//	POST /shard/align   traceback selected hits of one shard
//
// Shards are addressed by their .swdb checksum key (index.Key), never by
// file path: the key is content-derived, so a coordinator and a node that
// disagree about a shard's bytes can never silently mis-merge scores.
//
// Error contract: a node answers 503 only for retryable conditions (the
// node is draining or closed); every other failure status is terminal for
// that request. The client's retry and hedging policy keys off exactly
// this distinction — see Retryable.
package remote

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"heterosw/internal/core"
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

// ShardSearchRequest is the POST /shard/search body: one query scored over
// one shard.
type ShardSearchRequest struct {
	// Shard is the target shard's checksum key; unknown keys answer 404.
	Shard string `json:"shard"`
	// ID labels the query (diagnostics only; it does not affect scores).
	ID string `json:"id,omitempty"`
	// Codes holds the query residues pre-encoded under the shard's
	// alphabet (alphabet.Code bytes, base64 in JSON). Shipping codes
	// rather than letters makes the round trip loss-free: the encoding is
	// injective, so the node's cache keys dedup exactly like local ones.
	Codes []byte `json:"codes"`
}

// ShardSearchResponse is the score-only result of one shard execution.
// Scores is the full shard-length score list in the shard's caller order —
// the coordinator owns TopK selection, so nodes never truncate. It travels
// as a ScoreList: a base64 string of packed varints, which a coordinator
// decodes about nine times faster than a JSON number array.
type ShardSearchResponse struct {
	Scores ScoreList `json:"scores"`
	// Cells counts useful DP cell updates (query length x shard residues);
	// summed across shards it reproduces the single-node cell count
	// exactly, whatever the cut.
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

// ScoreList is a shard's score list on the wire. It marshals to a JSON
// string holding the standard base64 of one unsigned LEB128 varint per
// score, uint32(score), in order: every int32 round-trips exactly, and a
// Smith-Waterman score below 128 costs one byte, below 16,384 two.
// UnmarshalJSON also accepts the JSON number array older nodes send, so a
// coordinator can be upgraded before its nodes.
type ScoreList []int32

// MarshalJSON implements json.Marshaler.
func (l ScoreList) MarshalJSON() ([]byte, error) {
	packed := make([]byte, 0, 2*len(l)) // most scores pack in two bytes
	for _, s := range l {
		packed = binary.AppendUvarint(packed, uint64(uint32(s)))
	}
	out := make([]byte, base64.StdEncoding.EncodedLen(len(packed))+2)
	out[0], out[len(out)-1] = '"', '"'
	base64.StdEncoding.Encode(out[1:len(out)-1], packed)
	return out, nil
}

// UnmarshalJSON implements json.Unmarshaler. A truncated or overlong
// varint, a value beyond 32 bits and bad base64 are errors, never a short
// list, and the output is sized by counting varint terminal bytes, so a
// body allocates at most one int32 per byte it carries.
func (l *ScoreList) UnmarshalJSON(data []byte) error {
	if bytes.HasPrefix(data, []byte("[")) {
		// An older node's JSON number array.
		return json.Unmarshal(data, (*[]int32)(l))
	}
	var packed []byte
	if err := json.Unmarshal(data, &packed); err != nil {
		return fmt.Errorf("remote: scores: %w", err)
	}
	out, err := unpackScores(packed)
	if err != nil {
		return err
	}
	*l = out
	return nil
}

// unpackScores decodes packed varints, exactly one score per terminal
// byte (< 0x80). Only the shortest encoding of each value is accepted, so
// a list that decodes re-encodes to the same bytes.
func unpackScores(packed []byte) (ScoreList, error) {
	if len(packed) > 0 && packed[len(packed)-1] >= 0x80 {
		return nil, errors.New("remote: scores: truncated varint")
	}
	n := 0
	for _, b := range packed {
		if b < 0x80 {
			n++
		}
	}
	out := make(ScoreList, n)
	for i := range out {
		if b := packed[0]; b < 0x80 {
			out[i], packed = int32(b), packed[1:]
			continue
		}
		v, w := binary.Uvarint(packed)
		switch {
		case w <= 0 || w > 5 || packed[w-1] == 0:
			return nil, errors.New("remote: scores: overlong varint")
		case v > math.MaxUint32:
			return nil, errors.New("remote: scores: varint exceeds 32 bits")
		}
		out[i], packed = int32(uint32(v)), packed[w:]
	}
	return out, nil
}

// ShardAlignRequest is the POST /shard/align body: traceback the listed
// subjects of one shard against the query.
type ShardAlignRequest struct {
	Shard string `json:"shard"`
	ID    string `json:"id,omitempty"`
	Codes []byte `json:"codes"`
	// Indices lists the subjects to align as shard-local caller indices;
	// Scores carries the kernel score of each, which the node verifies
	// against its own traceback (a mismatch is a 500: the shard contents
	// disagree and no retry can fix that).
	Indices []int   `json:"indices"`
	Scores  []int32 `json:"scores"`
}

// ShardAlignResponse answers /shard/align: one alignment per requested
// index, in request order, each with its shard-local index.
type ShardAlignResponse struct {
	Alignments []core.AlignmentDetail `json:"alignments"`
}

// errorJSON mirrors the server's error body.
type errorJSON struct {
	Error string `json:"error"`
}

// ErrNoReplicas reports a request against a shard with no live owner:
// every node that served it is dead (or was never probed successfully).
// It is retryable by classification — the prober readopts a recovering
// node, whose shards route again without a coordinator restart — so front
// ends map it to 503, telling clients to retry exactly as they would
// against a draining node.
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
// node may be restarting, and replicas exist exactly for this. Of the HTTP
// statuses only 503 is: it is the one status nodes reserve for "healthy
// request, unavailable node" (draining, shard cluster closed). Everything
// else — 400s, 404 unknown shard, 500 — reports a request that cannot
// succeed as posed, and retrying would only amplify the failure.
// ErrNoReplicas is retryable too (no StatusError to classify): the
// prober readopts a shard's owner when the node recovers.
func Retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusServiceUnavailable
	}
	return true
}
