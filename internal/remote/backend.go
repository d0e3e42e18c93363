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
	name   string
	prober *Prober
}

// NewBackend builds a backend that routes every request to the prober's
// current owners of the shard's key, over the prober's client: failover,
// readoption and rebalance reach running traffic at the probe that sees
// them, with nothing to rewrite here.
func NewBackend(name string, prober *Prober) *Backend {
	return &Backend{name: name, prober: prober}
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

// Search implements core.Backend: one shard execution on the remote node,
// which answers its shard's opt.TopK-answer (0: every subject) as
// Result.Top. The node runs the search under its own configured kernel
// options — the coordinator ships the query and its K, not the search
// parameters — so operators must configure nodes and coordinator
// identically (see the README's distributed serving contract).
func (b *Backend) Search(ctx context.Context, db *seqdb.Database, query *sequence.Sequence, opt core.SearchOptions) (*core.Result, error) {
	resp, err := b.prober.client.ShardSearch(ctx, b.prober.Owners(db.Key()), &ShardSearchRequest{
		Shard: db.Key(),
		ID:    query.ID,
		Codes: residueBytes(query.Residues),
		K:     opt.TopK,
	}, db.Len(), db.Residues())
	if err != nil {
		return nil, fmt.Errorf("remote: backend %s: %w", b.name, err)
	}
	r := &core.Result{Top: &core.Answer{Hits: resp.Hits, Below: resp.Below}, WallSeconds: resp.WallSeconds}
	r.Stats.Cells = resp.Cells
	r.Stats.Overflows = resp.Overflows
	r.Stats.Overflows8 = resp.Overflows8
	r.Stats.OverflowCells = resp.OverflowCells
	return r, nil
}
