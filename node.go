package heterosw

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"heterosw/internal/alphabet"
	"heterosw/internal/core"
	"heterosw/internal/remote"
	"heterosw/internal/sequence"
)

// ShardServer is the node side of distributed search: it serves one or
// more shard clusters — each a full Cluster over one shard .swdb — under
// the remote shard protocol (GET /shards, POST /shard/search, POST
// /shard/align; see package heterosw/internal/remote). Shards are
// addressed by their .swdb checksum key, so a coordinator holding a
// manifest routes to this node only for bytes both sides agree on.
//
// Each shard search runs through its cluster's scheduler, so
// concurrent coordinator fan-outs share its in-flight slots and repeated
// shard queries hit the per-shard LRU cache, exactly like front-door
// /search traffic on a single node.
type ShardServer struct {
	shards map[string]*Cluster
	keys   []string // shard keys in construction order, for stable listings
	start  time.Time
}

// NewShardServer builds a shard node over one cluster per shard. Every
// cluster's database must carry a durable content key (a .swdb-loaded
// database does; an in-memory one does not) and all shards must share one
// alphabet.
func NewShardServer(clusters []*Cluster) (*ShardServer, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("heterosw: shard server needs at least one shard cluster")
	}
	s := &ShardServer{shards: make(map[string]*Cluster, len(clusters)), start: time.Now()}
	var alpha string
	for i, cl := range clusters {
		if cl == nil {
			return nil, fmt.Errorf("heterosw: shard cluster %d is nil", i)
		}
		key := cl.db.Key()
		if key == "" {
			return nil, fmt.Errorf("heterosw: shard cluster %d has no database key (load shards from .swdb files)", i)
		}
		if _, dup := s.shards[key]; dup {
			return nil, fmt.Errorf("heterosw: shard key %s served twice", key)
		}
		if a := cl.db.Alphabet(); i == 0 {
			alpha = a
		} else if a != alpha {
			return nil, fmt.Errorf("heterosw: shard %d alphabet %s disagrees with %s", i, a, alpha)
		}
		s.shards[key] = cl
		s.keys = append(s.keys, key)
	}
	return s, nil
}

// Handler returns the node's HTTP handler.
func (s *ShardServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shards", s.handleShards)
	mux.HandleFunc("/shard/search", s.handleShardSearch)
	mux.HandleFunc("/shard/align", s.handleShardAlign)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// Close releases every shard cluster's background work (see
// Cluster.Close).
func (s *ShardServer) Close() {
	for _, key := range s.keys {
		s.shards[key].Close()
	}
}

// CloseNow tears down every shard cluster's scheduled paths; in-flight
// shard searches resolve ErrClusterClosed and answer the retryable 503.
func (s *ShardServer) CloseNow() {
	for _, key := range s.keys {
		s.shards[key].CloseNow()
	}
}

func (s *ShardServer) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	resp := remote.ShardsResponse{Alphabet: s.shards[s.keys[0]].db.Alphabet()}
	for _, key := range s.keys {
		cl := s.shards[key]
		resp.Shards = append(resp.Shards, remote.ShardInfo{
			Key:       key,
			Sequences: cl.db.Len(),
			Residues:  cl.db.Residues(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// shardQuery resolves the shard and query shared by the search and align
// endpoints, writing the error response itself when it fails.
func (s *ShardServer) shardQuery(w http.ResponseWriter, shardKey, id string, codes []byte) (*Cluster, Sequence, bool) {
	cl, ok := s.shards[shardKey]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown shard %q (serving %d shards)", shardKey, len(s.keys)))
		return nil, Sequence{}, false
	}
	if len(codes) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty query codes"))
		return nil, Sequence{}, false
	}
	if len(codes) > maxQueryResidues {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%d query residues exceeds the %d limit", len(codes), maxQueryResidues))
		return nil, Sequence{}, false
	}
	alpha := cl.db.db.Alphabet()
	enc := make([]alphabet.Code, len(codes))
	for i, b := range codes {
		// The padding code (alpha.Size()) is an internal kernel value, not a
		// residue; accepting it would desync lane packing.
		if int(b) >= alpha.Size() {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("query code %d at position %d outside the %d-letter %s alphabet", b, i, alpha.Size(), alpha.Name()))
			return nil, Sequence{}, false
		}
		enc[i] = alphabet.Code(b)
	}
	if id == "" {
		id = "query"
	}
	return cl, Sequence{impl: &sequence.Sequence{ID: id, Residues: enc, Alpha: alpha}}, true
}

func (s *ShardServer) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req remote.ShardSearchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("invalid request: %w", err))
		return
	}
	cl, q, ok := s.shardQuery(w, req.Shard, req.ID, req.Codes)
	if !ok {
		return
	}
	// The coordinator owns the selection: the node computes no hit list and
	// ships the engine's own score list.
	res, err := cl.scheduled(r.Context(), job{query: q, wire: true})
	if err != nil {
		writeError(w, searchStatus(r, err), err)
		return
	}
	writeJSON(w, http.StatusOK, remote.ShardSearchResponse{
		Scores:        res.Scores,
		Cells:         res.Cells,
		WallSeconds:   res.WallSeconds,
		Overflows:     res.Overflows,
		Overflows8:    res.Overflows8,
		OverflowCells: res.OverflowCells,
	})
}

func (s *ShardServer) handleShardAlign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req remote.ShardAlignRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("invalid request: %w", err))
		return
	}
	cl, q, ok := s.shardQuery(w, req.Shard, req.ID, req.Codes)
	if !ok {
		return
	}
	if len(req.Indices) != len(req.Scores) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%d indices with %d scores", len(req.Indices), len(req.Scores)))
		return
	}
	if len(req.Indices) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no indices to align"))
		return
	}
	if len(req.Indices) > MaxAlignHits {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%d tracebacks exceeds the %d limit", len(req.Indices), MaxAlignHits))
		return
	}
	details, err := cl.alignIndices(r.Context(), q, req.Indices, req.Scores)
	if err != nil {
		writeError(w, searchStatus(r, err), err)
		return
	}
	writeJSON(w, http.StatusOK, remote.ShardAlignResponse{Alignments: details})
}

// shardHealthJSON is the node /healthz response.
type shardHealthJSON struct {
	Status        string             `json:"status"`
	UptimeSeconds float64            `json:"uptime_seconds"`
	Shards        []remote.ShardInfo `json:"shards"`
}

func (s *ShardServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	h := shardHealthJSON{Status: "ok", UptimeSeconds: time.Since(s.start).Seconds()}
	for _, key := range s.keys {
		cl := s.shards[key]
		h.Shards = append(h.Shards, remote.ShardInfo{
			Key:       key,
			Sequences: cl.db.Len(),
			Residues:  cl.db.Residues(),
		})
	}
	writeJSON(w, http.StatusOK, h)
}

// alignIndices is the node-side traceback entry point: align the query
// against the database sequences at the given caller indices, verifying
// each coordinator-supplied kernel score against the local traceback. A
// mismatch means the two sides disagree about the shard contents — a
// non-retryable failure by construction, since shard routing is keyed on
// content checksums.
func (c *Cluster) alignIndices(ctx context.Context, query Sequence, indices []int, scores []int32) ([]core.AlignmentDetail, error) {
	if c.closed.Load() {
		return nil, ErrClusterClosed
	}
	if len(indices) != len(scores) {
		return nil, fmt.Errorf("heterosw: %d indices with %d scores", len(indices), len(scores))
	}
	hits := make([]core.Hit, len(indices))
	for i, si := range indices {
		if si < 0 || si >= c.db.Len() {
			return nil, fmt.Errorf("heterosw: align index %d outside [0,%d)", si, c.db.Len())
		}
		hits[i] = core.Hit{SeqIndex: si, ID: c.db.Seq(si).ID(), Score: scores[i]}
	}
	return c.engine().disp.AlignHits(ctx, query.impl, hits, c.dopt)
}
