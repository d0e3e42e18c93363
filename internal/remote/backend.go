package remote

import (
	"context"
	"fmt"

	"heterosw/internal/alphabet"
	"heterosw/internal/core"
	"heterosw/internal/seqdb"
	"heterosw/internal/sequence"
)

// Backend adapts a remote swserve node to core.Backend, so the dispatcher
// drives it exactly like the local host backend: Search scores the shard
// it is handed (always its own shard under a sharded dispatcher) and
// AlignShard fans tracebacks out to the node holding the shard bytes.
type Backend struct {
	name     string
	client   *Client
	replicas *ReplicaSet
}

// NewBackendSet builds a backend over a live replica set: each request
// snapshots the set's current URLs, so the coordinator's health prober
// can rewrite shard ownership — failover, readoption, rebalance — under
// running traffic without touching the backend.
func NewBackendSet(name string, client *Client, replicas *ReplicaSet) *Backend {
	return &Backend{name: name, client: client, replicas: replicas}
}

// Name implements core.Backend.
func (b *Backend) Name() string { return b.name }

// residueBytes copies encoded residues into wire bytes. alphabet.Code is
// a uint8, so this is a widening-free copy, not a re-encode — the node
// rebuilds the exact residue slice and its caches dedup identically.
func residueBytes(codes []alphabet.Code) []byte {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[i] = byte(c)
	}
	return out
}

// Search implements core.Backend: one score-only shard execution on the
// remote node. The node runs the search under its own configured kernel
// options — the coordinator ships the query, not the search parameters —
// so operators must configure nodes and coordinator identically (see the
// README's distributed serving contract).
func (b *Backend) Search(ctx context.Context, db *seqdb.Database, query *sequence.Sequence, opt core.SearchOptions) (*core.Result, error) {
	resp, err := b.client.ShardSearch(ctx, b.replicas.URLs(), &ShardSearchRequest{
		Shard: db.Key(),
		ID:    query.ID,
		Codes: residueBytes(query.Residues),
	})
	if err != nil {
		return nil, fmt.Errorf("remote: backend %s: %w", b.name, err)
	}
	if len(resp.Scores) != db.Len() {
		return nil, fmt.Errorf("remote: backend %s answered %d scores for the %d-sequence shard %s",
			b.name, len(resp.Scores), db.Len(), db.Key())
	}
	r := &core.Result{Scores: resp.Scores, WallSeconds: resp.WallSeconds}
	r.Stats.Cells = resp.Cells
	r.Stats.Overflows = resp.Overflows
	r.Stats.Overflows8 = resp.Overflows8
	r.Stats.OverflowCells = resp.OverflowCells
	return r, nil
}

// AlignShard implements core.ShardBackend: tracebacks run on the node
// that holds the shard, and come back as shard-local details the
// dispatcher remaps to parent indices.
func (b *Backend) AlignShard(ctx context.Context, query *sequence.Sequence, shard *seqdb.Database, hits []core.Hit, opt core.SearchOptions) ([]core.AlignmentDetail, error) {
	req := &ShardAlignRequest{
		Shard:   shard.Key(),
		ID:      query.ID,
		Codes:   residueBytes(query.Residues),
		Indices: make([]int, len(hits)),
		Scores:  make([]int32, len(hits)),
	}
	for i, h := range hits {
		req.Indices[i] = h.SeqIndex
		req.Scores[i] = h.Score
	}
	resp, err := b.client.ShardAlign(ctx, b.replicas.URLs(), req)
	if err != nil {
		return nil, fmt.Errorf("remote: backend %s: %w", b.name, err)
	}
	if len(resp.Alignments) != len(hits) {
		return nil, fmt.Errorf("remote: backend %s answered %d alignments for %d hits", b.name, len(resp.Alignments), len(hits))
	}
	for i, a := range resp.Alignments {
		if a.SeqIndex != hits[i].SeqIndex {
			return nil, fmt.Errorf("remote: backend %s answered alignment %d for index %d (want %d)", b.name, i, a.SeqIndex, hits[i].SeqIndex)
		}
	}
	return resp.Alignments, nil
}
