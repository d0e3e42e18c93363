package heterosw

import (
	"context"
	"fmt"

	"heterosw/internal/alphabet"
	"heterosw/internal/core"
	"heterosw/internal/sequence"
	"heterosw/internal/translate"
)

// SearchTranslated performs a blastx-style translated search: a DNA query
// is translated in all six reading frames, each frame is searched against
// the cluster's protein database with the unmodified protein kernels (one
// batch, so shard splits and lane packings amortise across the frames),
// and the per-frame score lists are merged by each subject's best frame.
// Hits carry the winning frame (Hit.Frame) and, when ReportOptions
// requests alignments, the nucleotide coordinates of the aligned segment
// on the original query (HitAlignment.QueryDNAStart/End).
//
// The query must be a DNA sequence (NewDNASequence, ReadDNAFASTA) and the
// database a protein one. It is the context-free convenience root;
// cancellable callers use SearchTranslatedContext.
//
//sw:ctxroot
func (c *Cluster) SearchTranslated(query Sequence, report ...ReportOptions) (*ClusterResult, error) {
	return c.searchTranslated(context.Background(), query, c.dopt, report)
}

// SearchTranslatedContext is SearchTranslated with cancellation: ctx is
// checked at every frame boundary of the batched score pass and threaded
// through the per-frame traceback fan-out.
func (c *Cluster) SearchTranslatedContext(ctx context.Context, query Sequence, report ...ReportOptions) (*ClusterResult, error) {
	return c.searchTranslated(ctx, query, c.dopt, report)
}

// SearchTranslatedMatrix is SearchTranslated with a request-scoped
// substitution matrix, parsed from NCBI-format text against the protein
// alphabet the frame queries score under (see SearchMatrix). Parse
// failures wrap ErrBadMatrix.
//
//sw:ctxroot
func (c *Cluster) SearchTranslatedMatrix(query Sequence, matrixText string, report ...ReportOptions) (*ClusterResult, error) {
	return c.SearchTranslatedMatrixContext(context.Background(), query, matrixText, report...)
}

// SearchTranslatedMatrixContext is SearchTranslatedMatrix with
// cancellation (see SearchTranslatedContext for the semantics).
func (c *Cluster) SearchTranslatedMatrixContext(ctx context.Context, query Sequence, matrixText string, report ...ReportOptions) (*ClusterResult, error) {
	dopt, err := c.doptWithMatrix(matrixText)
	if err != nil {
		return nil, err
	}
	return c.searchTranslated(ctx, query, dopt, report)
}

func (c *Cluster) searchTranslated(ctx context.Context, query Sequence, dopt core.DispatchOptions, report []ReportOptions) (*ClusterResult, error) {
	rep, err := oneReport(report)
	if err != nil {
		return nil, err
	}
	if err := c.checkReport(rep); err != nil {
		return nil, err
	}
	if query.impl == nil {
		return nil, fmt.Errorf("heterosw: zero-value query")
	}
	if query.impl.Alphabet() != alphabet.DNA {
		return nil, fmt.Errorf("heterosw: translated search needs a DNA query, got %s", query.Alphabet())
	}
	if c.db.db.Alphabet() != alphabet.Protein {
		return nil, fmt.Errorf("heterosw: translated search needs a protein database, got %s", c.db.Alphabet())
	}
	frames := translate.Frames(query.impl.Residues)
	impls := make([]*sequence.Sequence, 0, len(frames))
	used := make([]*translate.Frame, 0, len(frames))
	for _, f := range frames {
		if len(f.Protein) == 0 {
			continue
		}
		impls = append(impls, &sequence.Sequence{
			ID:       fmt.Sprintf("%s|frame%+d", query.impl.ID, f.Index),
			Desc:     query.impl.Desc,
			Residues: f.Protein,
		})
		used = append(used, f)
	}
	if len(impls) == 0 {
		return nil, fmt.Errorf("heterosw: query %s is too short to translate (%d nt)",
			query.ID(), query.Len())
	}
	// The frames are searched for their scores alone; the one hit list is
	// selected over the merged scores.
	noHits := make([]int, len(impls))
	for i := range noHits {
		noHits[i] = -1
	}
	e := c.engine()
	res, err := e.disp.SearchBatchContext(ctx, impls, dopt, noHits)
	if err != nil {
		return nil, err
	}
	merged, frameOf := c.mergeFrames(res, used, c.topK(rep))
	if err := c.decorateTranslated(ctx, e, impls, used, frameOf, merged, rep, dopt); err != nil {
		return nil, err
	}
	return merged, nil
}

// mergeFrames folds the per-frame results into one: each subject keeps its
// best frame score (ties to the earlier frame, in +1..+3, -1..-3 order),
// cost accounting sums over frames, and the k best hits (all when 0) are
// selected over the merged scores, each stamped with its winning frame. The
// second return value maps each database index to the index (into frames)
// of its winning frame.
func (c *Cluster) mergeFrames(res []*core.ClusterResult, frames []*translate.Frame, k int) (*ClusterResult, []int) {
	best := res[0]
	frameOf := make([]int, len(best.Scores))
	for i, r := range res[1:] {
		for s, v := range r.Scores {
			if v > best.Scores[s] {
				best.Scores[s] = v
				frameOf[s] = i + 1
			}
		}
		best.Stats.Add(r.Stats)
		best.WallSeconds += r.WallSeconds
	}
	if best.WallSeconds > 0 {
		best.WallGCUPS = float64(best.Stats.Cells) / best.WallSeconds / 1e9
	}
	best.Hits = core.TopHits(c.db.db, best.Scores, k)
	merged := wrapCluster(best)
	for i := range merged.Hits {
		h := &merged.Hits[i]
		h.Frame = frames[frameOf[h.Index]].Index
	}
	return merged, frameOf
}

// decorateTranslated mirrors decorate for a merged translated result: the
// same significance rule, with the traceback phase fanned out
// per winning frame so every hit is re-aligned against the frame that
// produced its score, then mapped back to nucleotide coordinates.
func (c *Cluster) decorateTranslated(ctx context.Context, e *engineState, impls []*sequence.Sequence,
	frames []*translate.Frame, frameOf []int, res *ClusterResult, rep ReportOptions,
	dopt core.DispatchOptions) error {
	if rep.EValues {
		sig, err := res.FitSignificance(rep.EValueTrim)
		if err != nil {
			return fmt.Errorf("%w (%v)", ErrNoSignificance, err)
		}
		res.Significance = sig
		for i := range res.Hits {
			h := &res.Hits[i]
			h.Significance = &HitSignificance{
				BitScore: sig.BitScore(h.Score),
				EValue:   sig.EValue(h.Score),
			}
		}
	}
	if rep.Alignments {
		// Group the reported hits by winning frame; each group tracebacks
		// against its own frame query.
		byFrame := make(map[int][]int, len(impls))
		for i := range res.Hits {
			fi := frameOf[res.Hits[i].Index]
			byFrame[fi] = append(byFrame[fi], i)
		}
		for fi, hitIdx := range byFrame {
			hits := make([]core.Hit, len(hitIdx))
			for j, i := range hitIdx {
				h := res.Hits[i]
				hits[j] = core.Hit{SeqIndex: h.Index, ID: h.ID, Score: int32(h.Score)}
			}
			details, err := e.disp.AlignHits(ctx, impls[fi], hits, dopt)
			if err != nil {
				return err
			}
			for j := range details {
				d := &details[j]
				ds, de := frames[fi].DNARange(d.QueryStart, d.QueryEnd)
				res.Hits[hitIdx[j]].Alignment = &HitAlignment{
					QueryStart:    d.QueryStart,
					QueryEnd:      d.QueryEnd,
					SubjectStart:  d.SubjectStart,
					SubjectEnd:    d.SubjectEnd,
					QueryDNAStart: ds,
					QueryDNAEnd:   de,
					CIGAR:         d.CIGAR,
					Identities:    d.Identities,
					Columns:       d.Columns,
				}
			}
		}
	}
	return nil
}
