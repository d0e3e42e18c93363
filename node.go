package heterosw

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"heterosw/internal/alphabet"
	"heterosw/internal/core"
	"heterosw/internal/qsched"
	"heterosw/internal/remote"
	"heterosw/internal/sequence"
)

// maxShardQueries bounds a shard search's queries: one per reading frame.
const maxShardQueries = 6

// ShardServer is the node side of distributed search: it serves one or
// more shard clusters — each a full Cluster over one shard .swdb — under
// the remote shard protocol (GET /shards, POST /shard/search; see package
// heterosw/internal/remote). Shards are addressed by their .swdb checksum
// key, so a coordinator holding a manifest routes to this node only for
// bytes both sides agree on. A node scores the request's queries over its
// shard, keeps each subject's best score, and answers the request's K best
// hits, each naming its query, and the histogram below them
// (core.SelectAnswer), with the ID of the scoring it ran under; its
// coordinator merges the shards' answers and traces back the hits itself.
//
// Every shard search runs through the node's one scheduler, bounded by its
// shards' MaxInFlight: concurrent coordinator fan-outs over all its shards
// share those in-flight slots, an identical in-flight search of one shard
// runs once, and a closed node refuses them all with the retryable 503.
// The node keeps no result cache: its coordinator's cache answers the
// repeats. The shard clusters' own schedulers stay idle.
type ShardServer struct {
	shards  map[string]*Cluster
	keys    []string // shard keys in construction order, for stable listings
	scoring string   // the shards' ScoringID
	sched   *qsched.Scheduler[shardJob, *core.Result]
	start   time.Time
}

// shardJob is one shard search as the node's scheduler runs it: the
// shard's key, the queries and the K of the answer.
type shardJob struct {
	shard   string
	queries []*sequence.Sequence
	k       int
}

// key is the node scheduler's in-flight dedup key: the shard key, then K,
// then the queries (see queryKey).
func (jb shardJob) key() (string, bool) {
	return queryKey(jb.queries, jb.shard, "|", strconv.Itoa(jb.k), "|"), true
}

// NewShardServer builds a shard node over one cluster per shard. Every
// cluster's database must carry a durable content key (a .swdb-loaded
// database does; an in-memory one does not), and all shards must share one
// alphabet, one set of options and one MaxInFlight.
func NewShardServer(clusters []*Cluster) (*ShardServer, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("heterosw: shard server needs at least one shard cluster")
	}
	s := &ShardServer{shards: make(map[string]*Cluster, len(clusters)), start: time.Now()}
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
		if a, a0 := cl.db.Alphabet(), clusters[0].db.Alphabet(); a != a0 {
			return nil, fmt.Errorf("heterosw: shard %d alphabet %s disagrees with %s", i, a, a0)
		}
		if cl.keyBase != clusters[0].keyBase || cl.maxInFlight != clusters[0].maxInFlight {
			return nil, fmt.Errorf("heterosw: shard %d options or MaxInFlight disagree with shard 0's", i)
		}
		s.shards[key] = cl
		s.keys = append(s.keys, key)
	}
	dopt := clusters[0].dopt
	s.scoring = dopt.Search.ScoringID(clusters[0].db.db.Alphabet())
	s.sched = qsched.New(func(ctx context.Context, jb shardJob) (*core.Result, error) {
		return s.shards[jb.shard].engine().Answer(ctx, jb.queries, dopt, jb.k)
	}, shardJob.key, nil, clusters[0].maxInFlight)
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

// CloseNow tears down the node's scheduler; in-flight shard searches
// resolve ErrClusterClosed and answer the retryable 503.
func (s *ShardServer) CloseNow() { s.sched.CloseNow() }

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
	queries, err := wireQueries(&req, cl.db.db.Alphabet())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The node answers its shard's K best hits, ties with the K-th kept,
	// and the histogram below them; the coordinator selects over the
	// shards' answers.
	res, err := scheduled(r.Context(), s.sched, shardJob{shard: req.Shard, queries: queries, k: req.K})
	if err != nil {
		writeError(w, searchStatus(r, err), err)
		return
	}
	writeJSON(w, http.StatusOK, remote.ShardSearchResponse{
		Shard:         req.Shard,
		Scoring:       s.scoring,
		Hits:          res.Top.Hits,
		Below:         res.Top.Below,
		Cells:         res.Stats.Cells,
		WallSeconds:   res.WallSeconds,
		Overflows:     res.Stats.Overflows,
		Overflows8:    res.Stats.Overflows8,
		OverflowCells: res.Stats.OverflowCells,
	})
}

// wireQueries decodes a shard request's queries, refusing what no
// coordinator sends: no query or more than maxShardQueries, an empty query
// or one over maxQueryResidues, a code outside the alphabet, a negative k.
// The queries alias the request's bytes.
func wireQueries(req *remote.ShardSearchRequest, alpha *alphabet.Alphabet) ([]*sequence.Sequence, error) {
	if n := len(req.Queries); n == 0 || n > maxShardQueries {
		return nil, fmt.Errorf("%d queries, want 1 to %d", n, maxShardQueries)
	}
	if req.K < 0 {
		return nil, fmt.Errorf("negative k %d", req.K)
	}
	queries := make([]*sequence.Sequence, len(req.Queries))
	for qi, codes := range req.Queries {
		if len(codes) == 0 || len(codes) > maxQueryResidues {
			return nil, fmt.Errorf("query %d holds %d residues, want 1 to %d", qi, len(codes), maxQueryResidues)
		}
		for i, b := range codes {
			// The padding code (alpha.Size()) is an internal kernel value,
			// not a residue; accepting it would desync lane packing.
			if int(b) >= alpha.Size() {
				return nil, fmt.Errorf("query %d: code %d at position %d outside the %d-letter %s alphabet", qi, b, i, alpha.Size(), alpha.Name())
			}
		}
		queries[qi] = &sequence.Sequence{ID: cmp.Or(req.ID, "query"), Residues: alphabet.CodesView(codes), Alpha: alpha}
	}
	return queries, nil
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
