package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"github.com/imgrn/imgrn/internal/cluster"
	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/shard"
)

// serverIndexOptions are the index options cmd/imgrn-server builds with
// at its default flags (-d 2 -seed 42).
var serverIndexOptions = index.Options{D: 2, Seed: 42, BufferPages: 1024}

// reference is the in-process twin of a deployment: a shard.Coordinator
// over the same database with the partitioning the servers derive from
// their flags.
type reference struct {
	in    *inputs
	coord *shard.Coordinator
	// byRead caches the reference answers of fixed-seed pool requests.
	byRead map[int][][]answerJSON
	scan   map[int]map[int]bool // pool index → sources core.LinearScan answers
}

func newReference(in *inputs) (*reference, error) {
	w := in.w
	opts := shard.Options{NumShards: w.shards, Index: serverIndexOptions}
	if w.deploy == deployCluster {
		// One global shard per shard server, sources placed by the ring
		// every cluster member derives from the roster size.
		opts.PlaceFunc = cluster.NewRing(w.shards, 0).PlaceFunc()
	}
	coord, err := shard.Build(in.ds.DB, opts)
	if err != nil {
		return nil, fmt.Errorf("building the reference coordinator: %w", err)
	}
	ref := &reference{in: in, coord: coord, byRead: map[int][][]answerJSON{}, scan: map[int]map[int]bool{}}
	if !w.freshSeed {
		// Replay the servers' warm-up: with a shared Monte Carlo seed the
		// edge-probability cache keeps whatever the first request to reach
		// an edge computed, so the reference must fill its cache in the
		// same order.
		for i := range in.reads {
			if _, err := ref.answer(op{read: i}); err != nil {
				return nil, err
			}
		}
		ref.byRead = map[int][][]answerJSON{}
	}
	return ref, nil
}

func coreParams(p queryParams, seed uint64) core.Params {
	if seed == 0 {
		seed = p.Seed
	}
	return core.Params{Gamma: p.Gamma, Alpha: p.Alpha, Samples: p.Samples, Seed: seed,
		Analytic: p.Analytic, Workers: p.Workers}
}

// serverMatrix rebuilds a query matrix the way the server's handler does
// (source -1, columns as sent).
func serverMatrix(m *gene.Matrix) (*gene.Matrix, error) { return withSource(m, -1) }

// withSource copies a matrix under another source ID.
func withSource(m *gene.Matrix, source int) (*gene.Matrix, error) {
	cols := make([][]float64, m.NumGenes())
	for j := range cols {
		cols[j] = m.Col(j)
	}
	return gene.NewMatrix(source, m.Genes(), cols)
}

func toJSON(answers []core.Answer) []answerJSON {
	out := make([]answerJSON, 0, len(answers))
	for _, a := range answers {
		aj := answerJSON{Source: a.Source, Prob: a.Prob}
		for _, g := range a.Genes {
			aj.Genes = append(aj.Genes, strconv.Itoa(int(g)))
		}
		for _, e := range a.Edges {
			aj.Edges = append(aj.Edges, edgeJSON{S: e.S, T: e.T, Prob: e.P})
		}
		out = append(out, aj)
	}
	return out
}

// answer returns the reference answers of a read, one slice per item.
func (ref *reference) answer(o op) ([][]answerJSON, error) {
	if got, ok := ref.byRead[o.read]; ok && o.seed == 0 {
		return got, nil
	}
	items := ref.in.reads[o.read].items
	out := make([][]answerJSON, len(items))
	ctx := context.Background()
	if ref.in.w.batch {
		batch := make([]core.BatchItem, len(items))
		for i, it := range items {
			m, err := serverMatrix(it.matrix)
			if err != nil {
				return nil, err
			}
			batch[i] = core.BatchItem{Matrix: m, Params: coreParams(it.params, o.seed)}
		}
		results, _ := ref.coord.QueryBatch(ctx, batch, core.BatchOptions{ItemTimeout: 30 * time.Second})
		for i, r := range results {
			if r.Err != nil {
				return nil, fmt.Errorf("reference batch item %d: %w", i, r.Err)
			}
			out[i] = toJSON(r.Answers)
		}
	} else {
		m, err := serverMatrix(items[0].matrix)
		if err != nil {
			return nil, err
		}
		answers, _, err := ref.coord.QueryContext(ctx, m, coreParams(items[0].params, o.seed))
		if err != nil {
			return nil, fmt.Errorf("reference query: %w", err)
		}
		out[0] = toJSON(answers)
	}
	if o.seed == 0 {
		ref.byRead[o.read] = out
	}
	return out, nil
}

// scanSources returns the sources core.LinearScan answers for an analytic
// pool request.
func (ref *reference) scanSources(read int) (map[int]bool, error) {
	if got, ok := ref.scan[read]; ok {
		return got, nil
	}
	it := ref.in.reads[read].items[0]
	ls, err := core.NewLinearScan(ref.in.ds.DB, coreParams(it.params, 0))
	if err != nil {
		return nil, err
	}
	m, err := serverMatrix(it.matrix)
	if err != nil {
		return nil, err
	}
	answers, _, err := ls.Query(m)
	if err != nil {
		return nil, err
	}
	set := make(map[int]bool, len(answers))
	for _, a := range answers {
		set[a.Source] = true
	}
	ref.scan[read] = set
	return set, nil
}

// decodeAnswers extracts the per-item answers of a kept reply.
func decodeAnswers(k kept, batch bool) ([][]answerJSON, error) {
	if !batch {
		var r queryResponse
		if err := json.Unmarshal(k.body, &r); err != nil {
			return nil, err
		}
		return [][]answerJSON{r.Answers}, nil
	}
	frames, err := batchFrames(k.body)
	if err != nil {
		return nil, err
	}
	out := make([][]answerJSON, k.op.items)
	for _, f := range frames {
		if f.Done {
			continue
		}
		if f.Error != "" || f.Index < 0 || f.Index >= len(out) {
			return nil, fmt.Errorf("batch frame of item %d: error %q", f.Index, f.Error)
		}
		out[f.Index] = f.Answers
	}
	return out, nil
}

func sameAnswer(a, b answerJSON) bool {
	if a.Source != b.Source || a.Prob != b.Prob || len(a.Genes) != len(b.Genes) || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Genes {
		if a.Genes[i] != b.Genes[i] {
			return false
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

// checkAnswers compares every sampled reply, answer for answer, with the
// in-process reference, and on analytic requests checks that the answered
// sources are exactly those of core.LinearScan. Every mismatch counts as a
// failed op. It returns the number of answers compared.
func checkAnswers(in *inputs, samples []kept, res *workloadResult) (int, error) {
	ref, err := newReference(in)
	if err != nil {
		return 0, err
	}
	compared := 0
	base := in.ds.DB.Len() // generated sources are 0..N-1; everything above was added by a client
	for _, k := range samples {
		got, err := decodeAnswers(k, in.w.batch)
		if err != nil {
			res.Failed++
			res.fail("client %d op %d: undecodable reply: %v", k.client, k.ordinal, err)
			continue
		}
		want, err := ref.answer(k.op)
		if err != nil {
			return 0, err
		}
		ok := true
		for i := range want {
			g := got[i]
			if in.w.baseOnly {
				g = g[:0:0]
				for _, a := range got[i] {
					if a.Source < base {
						g = append(g, a)
					}
				}
			}
			compared += len(want[i])
			if len(g) != len(want[i]) {
				ok = false
				res.fail("client %d op %d item %d: %d answers, reference has %d", k.client, k.ordinal, i, len(g), len(want[i]))
				continue
			}
			for j := range g {
				if !sameAnswer(g[j], want[i][j]) {
					ok = false
					res.fail("client %d op %d item %d answer %d: got %+v, reference %+v", k.client, k.ordinal, i, j, g[j], want[i][j])
					break
				}
			}
			if !in.reads[k.op.read].items[i].params.Analytic {
				continue
			}
			scan, err := ref.scanSources(k.op.read)
			if err != nil {
				return 0, err
			}
			if len(scan) != len(g) {
				ok = false
				res.fail("client %d op %d: %d answers, core.LinearScan has %d", k.client, k.ordinal, len(g), len(scan))
				continue
			}
			for _, a := range g {
				if !scan[a.Source] {
					ok = false
					res.fail("client %d op %d: source %d answered but not by core.LinearScan", k.client, k.ordinal, a.Source)
					break
				}
			}
		}
		if !ok {
			res.Failed++
		}
	}
	return compared, nil
}
