// Package remote implements the distributed search layer's client side: the
// JSON wire types spoken between a coordinator and swserve shard nodes, the
// shard manifest that carries the durable checksum identity of each cut, a
// retrying/hedging HTTP client, the health Prober that records which nodes
// serve which shard keys, and a Backend implementing core.Backend so a
// remote shard slots into the dispatcher exactly like the local host,
// routing each request to the prober's current owners of its key.
//
// The protocol is deliberately small — three endpoints on every node:
//
//	GET  /shards        which shard keys this node owns
//	POST /shard/search  score one query over one shard (full score list)
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
	"errors"
	"fmt"
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
// the coordinator owns TopK selection, so nodes never truncate.
type ShardSearchResponse struct {
	Scores []int32 `json:"scores"`
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
