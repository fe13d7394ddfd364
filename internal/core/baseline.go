package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/pagestore"
	"github.com/imgrn/imgrn/internal/subiso"
)

// Baseline is the Section-6.1 competitor: it offline pre-computes and
// stores the existence probabilities of all pairwise edges of every GRN
// (complete graphs, O(N·n_i²/2) floats), then answers a query by scanning
// every matrix's pre-computed data, materializing G_i w.r.t. the ad-hoc γ,
// and matching the query graph against it.
type Baseline struct {
	db  *gene.Database
	acc *pagestore.Accountant

	// probs[source] is the upper-triangular probability array of the
	// complete GRN: entry (s, t), s < t, at index s·n − s(s+1)/2 + (t−s−1).
	probs map[int][]float64
	pages map[int]pagestore.PageID
	n     map[int]int

	params Params
	scorer *grn.RandomizedScorer
	an     grn.AnalyticScorer

	buildTime time.Duration
	bytes     uint64
}

// BuildBaseline materializes every pairwise edge probability offline.
// With params.Analytic unset this is extremely expensive (full Monte Carlo
// per pair), exactly the cost the paper's approach avoids.
func BuildBaseline(db *gene.Database, params Params) (*Baseline, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	b := &Baseline{
		db:     db,
		acc:    pagestore.New(pagestore.DefaultPageSize, 0),
		probs:  make(map[int][]float64, db.Len()),
		pages:  make(map[int]pagestore.PageID, db.Len()),
		n:      make(map[int]int, db.Len()),
		params: params,
		scorer: grn.NewRandomizedScorer(params.Seed^0xdeadbeefcafef00d, params.Samples),
		an:     grn.AnalyticScorer{OneSided: params.OneSided},
	}
	b.scorer.OneSided = params.OneSided
	for _, m := range db.Matrices() {
		n := m.NumGenes()
		tri := make([]float64, n*(n-1)/2)
		k := 0
		for s := 0; s < n; s++ {
			for t := s + 1; t < n; t++ {
				if params.Analytic {
					tri[k] = b.an.Score(m, s, t)
				} else {
					tri[k] = b.scorer.Score(m, s, t)
				}
				k++
			}
		}
		b.probs[m.Source] = tri
		b.n[m.Source] = n
		id, _ := b.acc.Allocate(len(tri) * 8)
		b.pages[m.Source] = id
		b.bytes += uint64(len(tri) * 8)
	}
	b.buildTime = time.Since(start)
	return b, nil
}

// BuildTime returns the offline materialization time.
func (b *Baseline) BuildTime() time.Duration { return b.buildTime }

// StorageBytes returns the size of the materialized probability data, the
// space cost the paper criticizes (17.94 GB at n_i = 300, N = 100K).
func (b *Baseline) StorageBytes() uint64 { return b.bytes }

func triIndex(n, s, t int) int {
	if s > t {
		s, t = t, s
	}
	return s*n - s*(s+1)/2 + (t - s - 1)
}

// Prob returns the materialized probability of edge (s, t) in the GRN of
// the given source.
func (b *Baseline) Prob(source, s, t int) (float64, error) {
	tri, ok := b.probs[source]
	if !ok {
		return 0, fmt.Errorf("core: baseline has no source %d", source)
	}
	if s == t {
		return 0, fmt.Errorf("core: baseline self-edge (%d,%d)", s, t)
	}
	return tri[triIndex(b.n[source], s, t)], nil
}

// Query answers an IM-GRN query by the baseline method: infer Q, then scan
// all pre-computed probability data (charged as page I/O), materialize each
// G_i w.r.t. γ and subgraph-match Q against it.
func (b *Baseline) Query(mq *gene.Matrix) ([]Answer, Stats, error) {
	return b.QueryContext(context.Background(), mq)
}

// QueryContext is Query under an explicit context; cancellation is honored
// between matrices of the scan. The RNG streams are shared across queries
// (as in the original offline design), so a Baseline must not serve
// concurrent queries.
func (b *Baseline) QueryContext(ctx context.Context, mq *gene.Matrix) ([]Answer, Stats, error) {
	var st Stats
	start := time.Now()

	var q *grn.Graph
	var err error
	if b.params.Analytic {
		q, err = grn.InferContext(ctx, mq, b.an, b.params.Gamma)
	} else {
		q, err = grn.InferContext(ctx, mq, b.scorer, b.params.Gamma)
	}
	if err != nil {
		return nil, st, err
	}
	st.InferQuery = time.Since(start)
	st.QueryVertices = q.NumVertices()
	st.QueryEdges = q.NumEdges()

	answers, err := b.queryWithGraph(ctx, q, &st)
	if err != nil {
		return nil, st, err
	}
	st.Total = time.Since(start)
	st.Answers = len(answers)
	return answers, st, nil
}

// QueryGraph runs the baseline for an already-inferred query GRN.
func (b *Baseline) QueryGraph(q *grn.Graph) ([]Answer, Stats, error) {
	return b.QueryGraphContext(context.Background(), q)
}

// QueryGraphContext is QueryGraph under an explicit context.
func (b *Baseline) QueryGraphContext(ctx context.Context, q *grn.Graph) ([]Answer, Stats, error) {
	var st Stats
	start := time.Now()
	st.QueryVertices = q.NumVertices()
	st.QueryEdges = q.NumEdges()
	answers, err := b.queryWithGraph(ctx, q, &st)
	if err != nil {
		return nil, st, err
	}
	st.Total = time.Since(start)
	st.Answers = len(answers)
	return answers, st, nil
}

func (b *Baseline) queryWithGraph(ctx context.Context, q *grn.Graph, st *Stats) ([]Answer, error) {
	tStart := time.Now()
	gamma, alpha := b.params.Gamma, b.params.Alpha
	io := b.acc.NewReader()
	var answers []Answer

	sources := make([]int, 0, b.db.Len())
	for _, m := range b.db.Matrices() {
		sources = append(sources, m.Source)
	}
	sort.Ints(sources)

	queryGenes := make(map[gene.ID]bool, q.NumVertices())
	for _, g := range q.Genes() {
		queryGenes[g] = true
	}
	candGenes := 0
	for _, src := range sources {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := b.db.BySource(src)
		n := b.n[src]
		tri := b.probs[src]
		// The baseline reads the entire pre-computed array of each matrix
		// and materializes the full GRN G_i w.r.t. the ad-hoc γ.
		io.ChargeBytes(b.pages[src], len(tri)*8)
		gi := grn.NewGraph(m.Genes())
		k := 0
		for s := 0; s < n; s++ {
			for t := s + 1; t < n; t++ {
				if tri[k] > gamma {
					gi.SetEdge(s, t, tri[k])
				}
				k++
			}
		}
		st.CandidateMatrices++
		for _, g := range m.Genes() {
			if queryGenes[g] {
				candGenes++
			}
		}
		// Subgraph-match Q against the materialized G_i (Definition 4).
		match, ok := subiso.Exists(q, gi, alpha)
		if !ok {
			continue
		}
		edges := make([]grn.Edge, 0, q.NumEdges())
		for _, e := range q.Edges() {
			p, _ := gi.EdgeProb(match.Mapping[e.S], match.Mapping[e.T])
			edges = append(edges, grn.Edge{S: e.S, T: e.T, P: p})
		}
		genes := make([]gene.ID, q.NumVertices())
		copy(genes, q.Genes())
		answers = append(answers, Answer{Source: src, Prob: match.Prob, Edges: edges, Genes: genes})
	}
	st.CandidateGenes = candGenes
	st.IOCost = io.Stats().Accesses
	st.Traversal = time.Since(tStart)
	return answers, nil
}
