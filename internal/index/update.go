package index

import (
	"fmt"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/rstar"
)

// AddMatrix indexes a new data source online: the matrix is added to the
// database, embedded with the same (Seed, Source)-derived randomness the
// offline build uses — so an incrementally-grown index answers queries
// exactly like a fresh build over the enlarged database — and its points
// are inserted into the R*-tree via the R* insertion algorithm. Node
// augmentations (signatures, leaf join tables) are recomputed only for the
// nodes the insertions created or changed (refreshDirty).
func (x *Index) AddMatrix(m *gene.Matrix) error {
	if m == nil || m.NumGenes() == 0 {
		return fmt.Errorf("index: AddMatrix requires a non-empty matrix")
	}
	if x.db.BySource(m.Source) != nil {
		return fmt.Errorf("index: source %d already indexed", m.Source)
	}
	emb, cost, err := embedOne(m, x.opts)
	if err != nil {
		return err
	}
	if err := x.db.Add(m); err != nil {
		return err
	}
	x.embeddings[m.Source] = emb
	x.stats.PivotCostSum += cost

	dim := 2*x.opts.D + 1
	for j := 0; j < m.NumGenes(); j++ {
		pt := make([]float64, dim)
		emb.Point(j, pt[:2*x.opts.D])
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
// points are deleted from the R*-tree, its embedding and heap mapping are
// discarded, the inverted file is rebuilt and the augmentations of the
// touched nodes are refreshed. The
// heap pages themselves are not reclaimed (the simulated store is
// append-only, as a log-structured heap would be).
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
	for j := 0; j < m.NumGenes(); j++ {
		pt := make([]float64, dim)
		emb.Point(j, pt[:2*x.opts.D])
		pt[dim-1] = float64(m.Gene(j))
		if !x.tree.Delete(rstar.Item{Point: pt, Ref: PackRef(source, j)}) {
			return fmt.Errorf("index: point for source %d gene %d missing from tree", source, j)
		}
	}
	delete(x.embeddings, source)
	delete(x.heap, source)
	x.db.Remove(source)
	x.inverted = newInvertedFromDB(x.db, x.opts.Bits)

	// Deletion may have restructured nodes; refresh pages and augmentations
	// along the touched paths.
	x.refreshDirty()

	x.stats.Vectors -= m.NumGenes()
	x.stats.TreeNodes = x.tree.NodeCount()
	x.stats.TreeHeight = x.tree.Height()
	return nil
}
