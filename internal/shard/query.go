package shard

import (
	"context"
	"fmt"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/obs"
)

// Query entry points (DESIGN.md §10). A solo query is a batch of one:
// QueryContext, QueryGraphContext and QueryTopKContext wrap their query in
// a single core.BatchItem and run it through QueryBatch (batch.go), the
// one scatter-gather in this package. Everything the protocol promises —
// the once-inferred query graph, the caller's params on every shard, the
// shared top-k sink, the scatter and merge spans — is described and
// implemented there, once.

// QueryContext answers an IM-GRN query scatter-gather: it infers the query
// GRN from mq once and fans the match out over the shards. Answers are
// sorted by source ID.
func (c *Coordinator) QueryContext(ctx context.Context, mq *gene.Matrix, params core.Params) ([]core.Answer, core.Stats, error) {
	return c.queryItem(ctx, core.BatchItem{Matrix: mq, Params: params})
}

// QueryGraphContext answers a query for an already-inferred query GRN
// scatter-gather.
func (c *Coordinator) QueryGraphContext(ctx context.Context, q *grn.Graph, params core.Params) ([]core.Answer, core.Stats, error) {
	return c.queryItem(ctx, core.BatchItem{Graph: q, Params: params})
}

// QueryTopKContext answers a query keeping only the k best matches by
// appearance probability (ties toward smaller source IDs). With k>0 the
// shards stream their answers into a shared bounded top-k merge and
// terminate early on the cross-shard Markov bound; the returned top-k set
// is deterministic, though which candidates the rising bound prunes — and
// so the pruning and cache counters — may vary run to run. k <= 0 ranks
// all matches.
func (c *Coordinator) QueryTopKContext(ctx context.Context, mq *gene.Matrix, params core.Params, k int) ([]core.Answer, core.Stats, error) {
	answers, st, err := c.queryItem(ctx, core.BatchItem{Matrix: mq, Params: params, K: k})
	if err == nil && k <= 0 {
		mark := params.Trace.Start(obs.StageTopK)
		core.RankAnswers(answers)
		mark.End(len(answers), len(answers))
	}
	return answers, st, err
}

// queryItem runs one query as a one-item batch.
func (c *Coordinator) queryItem(ctx context.Context, item core.BatchItem) ([]core.Answer, core.Stats, error) {
	results, _ := c.QueryBatch(ctx, []core.BatchItem{item}, core.BatchOptions{})
	return results[0].Answers, results[0].Stats, results[0].Err
}

// InferGraph reconstructs the probabilistic GRN of a matrix with the
// coordinator's estimator settings; the shards are not consulted (query
// inference reads only the matrix).
func (c *Coordinator) InferGraph(m *gene.Matrix, params core.Params) (*grn.Graph, error) {
	s := c.shards[0]
	s.mu.RLock()
	defer s.mu.RUnlock()
	proc, err := core.NewProcessor(s.idx, params)
	if err != nil {
		return nil, err
	}
	return proc.InferQueryGraph(m)
}

// recordQuery folds one served query into the shard's lifetime counters.
func (s *shardState) recordQuery(st core.Stats) {
	s.queries.Add(1)
	s.ioCost.Add(st.IOCost)
	s.ioHits.Add(st.IOHits)
}

// inferOnce infers a matrix item's query graph once, up front, with the
// infer span and stats recorded coordinator-side.
func (c *Coordinator) inferOnce(ctx context.Context, mq *gene.Matrix, params core.Params) (*grn.Graph, core.Stats, error) {
	var st core.Stats
	start := time.Now()
	s := c.shards[0]
	s.mu.RLock()
	proc, err := core.NewProcessor(s.idx, params)
	if err != nil {
		s.mu.RUnlock()
		return nil, st, err
	}
	q, err := proc.InferQueryGraphContext(ctx, mq)
	s.mu.RUnlock()
	if err != nil {
		return nil, st, fmt.Errorf("shard: inferring query graph: %w", err)
	}
	st.InferQuery = time.Since(start)
	st.QueryVertices = q.NumVertices()
	st.QueryEdges = q.NumEdges()
	params.Trace.Record(obs.StageInfer, start, st.InferQuery, mq.NumGenes(), q.NumEdges())
	return q, st, nil
}
