package core

import (
	"context"
	"sort"
	"time"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/pagestore"
)

// LinearScan is the index-free method of Section 4.1: it scans every
// matrix in the database, applies the Section-3.2 prunings (Lemma 3 edge
// inference pruning and Lemma 5 graph existence pruning) per matrix, and
// refines the survivors with exact Monte Carlo estimates. It is the middle
// ground between Baseline (no pruning, full materialization) and the
// indexed IM-GRN processor, and serves as the pruning ablation.
type LinearScan struct {
	db     *gene.Database
	acc    *pagestore.Accountant
	heap   map[int]pagestore.PageID
	params Params
	scorer *grn.RandomizedScorer
	an     grn.AnalyticScorer
	pruner *grn.Pruner
}

// NewLinearScan returns a linear-scan query engine over db.
func NewLinearScan(db *gene.Database, params Params) (*LinearScan, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	ls := &LinearScan{
		db:     db,
		acc:    pagestore.New(pagestore.DefaultPageSize, 0),
		heap:   make(map[int]pagestore.PageID, db.Len()),
		params: params,
		scorer: grn.NewRandomizedScorer(params.Seed^0x7f4a7c159e3779b9, params.Samples),
		an:     grn.AnalyticScorer{OneSided: params.OneSided},
		pruner: grn.NewPruner(params.Seed^0x3c6ef372fe94f82a, params.BoundSamples),
	}
	ls.scorer.OneSided = params.OneSided
	ls.pruner.OneSided = params.OneSided
	for _, m := range db.Matrices() {
		id, _ := ls.acc.Allocate(m.NumGenes() * m.Samples() * 8)
		ls.heap[m.Source] = id
	}
	return ls, nil
}

// Query answers an IM-GRN query by pruned linear scan.
func (ls *LinearScan) Query(mq *gene.Matrix) ([]Answer, Stats, error) {
	return ls.QueryContext(context.Background(), mq)
}

// QueryContext is Query under an explicit context; cancellation is honored
// between matrices of the scan. The RNG streams are shared across queries,
// so a LinearScan must not serve concurrent queries.
func (ls *LinearScan) QueryContext(ctx context.Context, mq *gene.Matrix) ([]Answer, Stats, error) {
	var st Stats
	start := time.Now()
	var q *grn.Graph
	var err error
	if ls.params.Analytic {
		q, err = grn.InferContext(ctx, mq, ls.an, ls.params.Gamma)
	} else {
		q, _, err = grn.InferPruned(mq, ls.scorer, ls.pruner, ls.params.Gamma)
	}
	if err != nil {
		return nil, st, err
	}
	st.InferQuery = time.Since(start)
	st.QueryVertices = q.NumVertices()
	st.QueryEdges = q.NumEdges()
	answers, err := ls.queryWithGraph(ctx, q, &st)
	if err != nil {
		return nil, st, err
	}
	st.Total = time.Since(start)
	st.Answers = len(answers)
	return answers, st, nil
}

// QueryGraph runs the linear scan for an already-inferred query GRN.
func (ls *LinearScan) QueryGraph(q *grn.Graph) ([]Answer, Stats, error) {
	return ls.QueryGraphContext(context.Background(), q)
}

// QueryGraphContext is QueryGraph under an explicit context.
func (ls *LinearScan) QueryGraphContext(ctx context.Context, q *grn.Graph) ([]Answer, Stats, error) {
	var st Stats
	start := time.Now()
	st.QueryVertices = q.NumVertices()
	st.QueryEdges = q.NumEdges()
	answers, err := ls.queryWithGraph(ctx, q, &st)
	if err != nil {
		return nil, st, err
	}
	st.Total = time.Since(start)
	st.Answers = len(answers)
	return answers, st, nil
}

func (ls *LinearScan) queryWithGraph(ctx context.Context, q *grn.Graph, st *Stats) ([]Answer, error) {
	if hasDuplicateGenes(q) {
		return nil, nil // unique per-matrix labels make injective embedding impossible
	}
	tStart := time.Now()
	io := ls.acc.NewReader()
	qEdges := q.Edges()
	gamma, alpha := ls.params.Gamma, ls.params.Alpha
	var answers []Answer

	sources := make([]int, 0, ls.db.Len())
	for _, m := range ls.db.Matrices() {
		sources = append(sources, m.Source)
	}
	sort.Ints(sources)
	candGenes := make(map[[2]int]bool)

	colBytes := func(m *gene.Matrix) int { return m.Samples() * 8 }
	for _, src := range sources {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := ls.db.BySource(src)
		cols := make([]int, q.NumVertices())
		ok := true
		for v := 0; v < q.NumVertices(); v++ {
			c := m.IndexOf(q.Gene(v))
			if c < 0 {
				ok = false
				break
			}
			cols[v] = c
		}
		if !ok {
			continue
		}
		st.CandidateMatrices++
		for _, c := range cols {
			candGenes[[2]int{src, c}] = true
		}
		// Lemma 3 per edge, accumulating the Lemma 5 product bound.
		ub := 1.0
		pruned := false
		for _, e := range qEdges {
			a, b := cols[e.S], cols[e.T]
			io.ChargeBytes(ls.heap[src], 2*colBytes(m))
			if !m.Informative(a) || !m.Informative(b) {
				pruned = true
				break
			}
			eub := ls.pruner.UpperBound(m.StdCol(a), m.StdCol(b))
			if eub <= gamma { // Lemma 3: edge cannot exist
				pruned = true
				break
			}
			ub *= eub
			if grn.PruneByGraphExistence(ub, alpha) { // Lemma 5
				pruned = true
				break
			}
		}
		if pruned {
			st.MatricesPrunedL5++
			continue
		}
		// Refinement with exact estimates.
		prob := 1.0
		edges := make([]grn.Edge, 0, len(qEdges))
		matched := true
		for _, e := range qEdges {
			a, b := cols[e.S], cols[e.T]
			var ep float64
			if ls.params.Analytic {
				ep = ls.an.Score(m, a, b)
			} else {
				ep = ls.scorer.Score(m, a, b)
			}
			if ep <= gamma {
				matched = false
				break
			}
			prob *= ep
			if prob <= alpha {
				matched = false
				break
			}
			edges = append(edges, grn.Edge{S: e.S, T: e.T, P: ep})
		}
		if !matched {
			continue
		}
		genes := make([]gene.ID, q.NumVertices())
		copy(genes, q.Genes())
		answers = append(answers, Answer{Source: src, Prob: prob, Edges: edges, Genes: genes})
	}
	st.CandidateGenes = len(candGenes)
	st.IOCost = io.Stats().Accesses
	st.Traversal = time.Since(tStart)
	return answers, nil
}
