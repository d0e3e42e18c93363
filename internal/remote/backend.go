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
// it is handed (always its own shard under a sharded dispatcher). The
// coordinator traces back its hits itself, over the parent index.
type Backend struct {
	name    string
	prober  *Prober
	scoring string
}

// NewBackend builds a backend that routes every request to the prober's
// current owners of the shard's key, over the prober's client: failover,
// readoption and rebalance reach running traffic at the probe that sees
// them, with nothing to rewrite here. scoring is the coordinator's
// core.SearchOptions.ScoringID, which every answer must carry.
func NewBackend(name string, prober *Prober, scoring string) *Backend {
	return &Backend{name: name, prober: prober, scoring: scoring}
}

// Name implements core.Backend.
func (b *Backend) Name() string { return b.name }

// Search implements core.Backend: one /shard/search carrying every query,
// whose answer is the shard's opt.TopK-answer (0: every subject). The node
// scores under its own configured options — the coordinator ships the
// queries and their K, not the search parameters — and an answer scored
// under another matrix or other gap penalties than the backend's scoring
// ID fails its replica (ShardSearchResponse.check): operators configure nodes and
// coordinator identically (see the README's distributed serving contract).
func (b *Backend) Search(ctx context.Context, db *seqdb.Database, queries []*sequence.Sequence, opt core.SearchOptions) (*core.Result, error) {
	req := &ShardSearchRequest{Shard: db.Key(), ID: queries[0].ID, Queries: make([][]byte, len(queries)), K: opt.TopK}
	for i, q := range queries {
		req.Queries[i] = alphabet.BytesView(q.Residues)
	}
	resp, err := b.prober.client.ShardSearch(ctx, b.prober.Owners(db.Key()), req,
		db.Len(), db.Residues(), b.scoring)
	if err != nil {
		return nil, fmt.Errorf("remote: backend %s: %w", b.name, err)
	}
	return &core.Result{
		Top:         &core.Answer{Hits: resp.Hits, Below: resp.Below},
		Stats:       core.Stats{Cells: resp.Cells, Overflows: resp.Overflows, Overflows8: resp.Overflows8, OverflowCells: resp.OverflowCells},
		WallSeconds: resp.WallSeconds,
	}, nil
}
