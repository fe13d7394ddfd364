package index

import (
	"fmt"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/pivot"
	"github.com/imgrn/imgrn/internal/rstar"
)

// AddMatrix indexes a new data source online: the matrix is added to the
// database, embedded with the same (Seed, Source)-derived randomness the
// offline build uses — so an incrementally-grown index answers queries
// exactly like a fresh build over the enlarged database — and its points
// are inserted into the tree in (gene, source) key order, the order the
// gene-primary bulk load lays out: each point joins its gene's run, and a
// full node splits at the end of that run, so a source whose ID is the
// highest yet splits nodes only between genes and keeps each gene's
// vectors together, as a bulk build does. Node
// augmentations (signatures, leaf join tables) are recomputed only for the
// nodes the insertions created or changed (refreshDirty).
//
// AddMatrix is Embed under the index's options followed by AddEmbedded; a
// writer that serializes adds behind a lock runs the two itself, the
// embedding outside the lock.
func (x *Index) AddMatrix(m *gene.Matrix) error {
	e, err := Embed(m, x.opts)
	if err != nil {
		return err
	}
	return x.AddEmbedded(e)
}

// Embedded is a matrix with its pivot embedding: the Monte Carlo half of
// an online add, which reads no index state.
type Embedded struct {
	m    *gene.Matrix
	opts Options // with defaults, as the embedding ran
	emb  *pivot.Embedding
	cost float64
}

// Embed selects pivots for m and embeds it under opts, which must be the
// construction options of the index the result is added to. It touches no
// index, so it runs beside readers and writers of any index.
func Embed(m *gene.Matrix, opts Options) (*Embedded, error) {
	if m == nil || m.NumGenes() == 0 {
		return nil, fmt.Errorf("index: AddMatrix requires a non-empty matrix")
	}
	opts = opts.withDefaults()
	sc := scratchPool.Get().(*embedScratch)
	emb, cost, err := embedOne(m, opts, sc)
	sc.release()
	if err != nil {
		return nil, err
	}
	return &Embedded{m: m, opts: opts, emb: emb, cost: cost}, nil
}

// AddEmbedded applies an embedded matrix to the index: the rest of
// AddMatrix. It rejects an embedding made under options that embed
// differently from the index's own.
func (x *Index) AddEmbedded(e *Embedded) error {
	m, o := e.m, e.opts
	if o.D != x.opts.D || o.Samples != x.opts.Samples || o.Seed != x.opts.Seed ||
		o.Selection != x.opts.Selection || o.RandomPivots != x.opts.RandomPivots {
		return fmt.Errorf("index: source %d was embedded under other index options", m.Source)
	}
	if x.db.BySource(m.Source) != nil {
		return fmt.Errorf("index: source %d already indexed", m.Source)
	}
	if err := x.db.Add(m); err != nil {
		return err
	}
	x.embeddings[m.Source] = e.emb
	x.stats.PivotCostSum += e.cost

	dim := 2*x.opts.D + 1
	pts := make([]float64, m.NumGenes()*dim) // one matrix's points, freed together
	for j := 0; j < m.NumGenes(); j++ {
		pt := pts[j*dim : (j+1)*dim : (j+1)*dim]
		e.emb.Point(j, pt[:2*x.opts.D])
		pt[dim-1] = float64(m.Gene(j))
		if err := x.tree.Insert(rstar.Item{Point: pt, Ref: PackRef(m.Source, j)}); err != nil {
			return err
		}
	}
	for _, g := range m.Genes() {
		x.inverted.Add(g, m.Source)
	}
	first := x.store.Append(encodeStdColumns(m))
	x.heap[m.Source] = heapInfo{first: first, colBytes: m.Samples() * 8}

	// Splits may have created nodes without pages; every node on an
	// insertion path needs its augmentation recomputed.
	x.refreshDirty()

	x.stats.Vectors += m.NumGenes()
	x.stats.TreeNodes = x.tree.NodeCount()
	x.stats.TreeHeight = x.tree.Height()
	return nil
}

// RemoveMatrix drops a data source from the index and the database: its
// points are found by their (gene, source) keys and deleted from the tree,
// its embedding and heap mapping are
// discarded, its genes are withdrawn from the inverted file and the
// augmentations of the touched nodes are refreshed. The heap pages
// themselves are not reclaimed (the simulated store is append-only, as a
// log-structured heap would be).
func (x *Index) RemoveMatrix(source int) error {
	m := x.db.BySource(source)
	if m == nil {
		return fmt.Errorf("index: source %d not indexed", source)
	}
	emb, ok := x.embeddings[source]
	if !ok {
		return fmt.Errorf("index: source %d has no embedding", source)
	}
	dim := 2*x.opts.D + 1
	pt := make([]float64, dim) // Delete only compares it
	for j := 0; j < m.NumGenes(); j++ {
		emb.Point(j, pt[:2*x.opts.D])
		pt[dim-1] = float64(m.Gene(j))
		if !x.tree.Delete(rstar.Item{Point: pt, Ref: PackRef(source, j)}) {
			return fmt.Errorf("index: point for source %d gene %d missing from tree", source, j)
		}
	}
	delete(x.embeddings, source)
	delete(x.heap, source)
	x.db.Remove(source)
	for _, g := range m.Genes() {
		x.inverted.Remove(g, source)
	}

	// Deletion may have restructured nodes; refresh pages and augmentations
	// along the touched paths.
	x.refreshDirty()

	x.stats.Vectors -= m.NumGenes()
	x.stats.TreeNodes = x.tree.NodeCount()
	x.stats.TreeHeight = x.tree.Height()
	return nil
}
