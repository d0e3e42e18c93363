package heterosw

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"heterosw/internal/alphabet"
	"heterosw/internal/remote"
	"heterosw/internal/sequence"
)

// ShardServer is the node side of distributed search: it serves one or
// more shard clusters — each a full Cluster over one shard .swdb — under
// the remote shard protocol (GET /shards, POST /shard/search; see package
// heterosw/internal/remote). Shards are addressed by their .swdb checksum
// key, so a coordinator holding a manifest routes to this node only for
// bytes both sides agree on. A node only scores: its coordinator traces
// back the hits itself.
//
// Every shard search runs through its cluster's scheduler, so concurrent
// coordinator fan-outs share its in-flight slots, repeated shard queries
// hit the per-shard LRU cache exactly like front-door /search traffic on
// a single node, and a closed node refuses them all with the retryable
// 503.
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
	writeJSON(w, http.StatusOK, remote.ShardsResponse{
		Alphabet: s.shards[s.keys[0]].db.Alphabet(),
		Shards:   s.shardInfos(),
	})
}

// shardInfos is the node's shard inventory in key order, as GET /shards
// and /healthz both report it.
func (s *ShardServer) shardInfos() []remote.ShardInfo {
	out := make([]remote.ShardInfo, len(s.keys))
	for i, key := range s.keys {
		cl := s.shards[key]
		out[i] = remote.ShardInfo{Key: key, Sequences: cl.db.Len(), Residues: cl.db.Residues()}
	}
	return out
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
	cl, ok := s.shards[req.Shard]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown shard %q (serving %d shards)", req.Shard, len(s.keys)))
		return
	}
	if len(req.Codes) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty query codes"))
		return
	}
	if len(req.Codes) > maxQueryResidues {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%d query residues exceeds the %d limit", len(req.Codes), maxQueryResidues))
		return
	}
	alpha := cl.db.db.Alphabet()
	enc := make([]alphabet.Code, len(req.Codes))
	for i, b := range req.Codes {
		// The padding code (alpha.Size()) is an internal kernel value, not a
		// residue; accepting it would desync lane packing.
		if int(b) >= alpha.Size() {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("query code %d at position %d outside the %d-letter %s alphabet", b, i, alpha.Size(), alpha.Name()))
			return
		}
		enc[i] = alphabet.Code(b)
	}
	id := req.ID
	if id == "" {
		id = "query"
	}
	q := Sequence{impl: &sequence.Sequence{ID: id, Residues: enc, Alpha: alpha}}
	// The coordinator owns the selection: the node computes no hit list and
	// ships the engine's own score list.
	res, err := cl.scheduled(r.Context(), job{query: q, wire: true})
	if err != nil {
		writeError(w, searchStatus(r, err), err)
		return
	}
	writeJSON(w, http.StatusOK, remote.ShardSearchResponse{
		Shard:         req.Shard,
		Scores:        res.wire,
		Cells:         res.Cells,
		WallSeconds:   res.WallSeconds,
		Overflows:     res.Overflows,
		Overflows8:    res.Overflows8,
		OverflowCells: res.OverflowCells,
	})
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
	writeJSON(w, http.StatusOK, shardHealthJSON{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Shards:        s.shardInfos(),
	})
}
