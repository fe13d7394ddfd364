// Package gene defines the data model of Section 2.1: gene feature
// matrices M_i of heterogeneous shape (l_i samples × n_i genes), the gene
// feature database D that collects N of them from distinct data sources,
// and a catalog mapping human-readable gene names to integer gene IDs (the
// paper represents gene names by integers for indexing).
package gene

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/vecmath"
)

// ID identifies a gene. Identical IDs across matrices denote the same gene
// measured by different data sources.
type ID int32

// Matrix is one gene feature matrix M_i: feature vectors for NumGenes()
// genes, each observed over Samples() individuals (e.g. patients). Feature
// vectors are stored column-wise because every algorithm in the paper
// consumes whole gene vectors.
type Matrix struct {
	// Source is the data source identifier i of this matrix within D.
	Source int
	// genes[j] labels column j. IDs are unique within a matrix.
	genes []ID
	// cols[j] is the raw feature vector of gene genes[j], length = samples.
	cols [][]float64
	// std[j] is cols[j] standardized to zero mean / unit norm (Lemma 1
	// normal form); built once at construction.
	std [][]float64
	// informative[j] is false when cols[j] has zero variance and therefore
	// carries no correlation signal.
	informative []bool
	// sortedGenes lists the gene IDs ascending and sortedCols[k] is the
	// column of sortedGenes[k]: the lookup IndexOf, Has and ColumnsOf
	// search.
	sortedGenes []ID
	sortedCols  []int32
	samples     int
}

// NewMatrix builds a Matrix from column vectors. genes[j] labels cols[j];
// all columns must share one length and gene IDs must be unique.
// The columns are retained (not copied); callers must not mutate them.
func NewMatrix(source int, genes []ID, cols [][]float64) (*Matrix, error) {
	if len(genes) != len(cols) {
		return nil, fmt.Errorf("gene: %d gene IDs for %d columns", len(genes), len(cols))
	}
	m := &Matrix{
		Source:      source,
		genes:       genes,
		cols:        cols,
		std:         make([][]float64, len(cols)),
		informative: make([]bool, len(cols)),
	}
	if len(cols) > 0 {
		m.samples = len(cols[0])
	}
	for j, c := range cols {
		if len(c) != m.samples {
			return nil, fmt.Errorf("gene: column %d has %d samples, want %d", j, len(c), m.samples)
		}
		std, ok := vecmath.StandardizedCopy(c)
		m.std[j] = std
		m.informative[j] = ok
	}
	if err := m.sortGenes(); err != nil {
		return nil, err
	}
	return m, nil
}

// sortGenes builds the gene-sorted lookup and rejects a repeated gene ID,
// naming the gene whose second occurrence comes first in column order.
func (m *Matrix) sortGenes() error {
	n := len(m.genes)
	cols := make([]int32, n)
	for j := range cols {
		cols[j] = int32(j)
	}
	slices.SortStableFunc(cols, func(a, b int32) int { return cmp.Compare(m.genes[a], m.genes[b]) })
	dup := int32(-1) // the earliest column repeating a gene
	sorted := make([]ID, n)
	for k, j := range cols {
		sorted[k] = m.genes[j]
		if k > 0 && sorted[k] == sorted[k-1] && (dup < 0 || j < dup) {
			dup = j
		}
	}
	if dup >= 0 {
		return fmt.Errorf("gene: duplicate gene ID %d in source %d", m.genes[dup], m.Source)
	}
	m.sortedGenes, m.sortedCols = sorted, cols
	return nil
}

// NewMatrixFromRows builds a Matrix from an l×n row-major sample matrix
// (row j = sample of patient j, column k = gene k), the layout of
// Definition 1.
func NewMatrixFromRows(source int, genes []ID, rows *vecmath.Matrix) (*Matrix, error) {
	if rows.Cols != len(genes) {
		return nil, fmt.Errorf("gene: %d gene IDs for %d matrix columns", len(genes), rows.Cols)
	}
	cols := make([][]float64, rows.Cols)
	for j := range cols {
		cols[j] = rows.Col(j)
	}
	return NewMatrix(source, genes, cols)
}

// NumGenes returns n_i, the number of genes (columns).
func (m *Matrix) NumGenes() int { return len(m.genes) }

// Samples returns l_i, the number of individuals (rows).
func (m *Matrix) Samples() int { return m.samples }

// Gene returns the ID labelling column j.
func (m *Matrix) Gene(j int) ID { return m.genes[j] }

// Genes returns the column labels; callers must not mutate the slice.
func (m *Matrix) Genes() []ID { return m.genes }

// Col returns the raw feature vector of column j (not a copy).
func (m *Matrix) Col(j int) []float64 { return m.cols[j] }

// StdCol returns the standardized feature vector of column j (not a copy).
func (m *Matrix) StdCol(j int) []float64 { return m.std[j] }

// Informative reports whether column j has non-zero variance.
func (m *Matrix) Informative(j int) bool { return m.informative[j] }

// IndexOf returns the column index of gene g, or -1 if absent.
func (m *Matrix) IndexOf(g ID) int {
	if k, ok := slices.BinarySearch(m.sortedGenes, g); ok {
		return int(m.sortedCols[k])
	}
	return -1
}

// Has reports whether gene g appears in this matrix.
func (m *Matrix) Has(g ID) bool { return m.IndexOf(g) >= 0 }

// ColumnsOf maps strictly ascending gene IDs to their columns in one
// forward pass over the matrix's gene-sorted lookup: dst[k] becomes the
// column of genes[k]. It reports false, leaving dst partly written, as
// soon as a gene is absent. dst must hold len(genes) entries.
func (m *Matrix) ColumnsOf(genes []ID, dst []int) bool {
	j := 0
	for k, g := range genes {
		for j < len(m.sortedGenes) && m.sortedGenes[j] < g {
			j++
		}
		if j == len(m.sortedGenes) || m.sortedGenes[j] != g {
			return false
		}
		dst[k] = int(m.sortedCols[j])
		j++
	}
	return true
}

// WithNoise returns a copy of m whose raw features have i.i.d. Gaussian
// noise N(0, sigma²) added, the corruption used in the robustness
// experiments of Section 6.2 (σ = 0.3).
func (m *Matrix) WithNoise(rng *randgen.Rand, sigma float64) *Matrix {
	cols := make([][]float64, len(m.cols))
	for j, c := range m.cols {
		nc := make([]float64, len(c))
		for i, v := range c {
			nc[i] = v + rng.Gaussian(0, sigma)
		}
		cols[j] = nc
	}
	genes := make([]ID, len(m.genes))
	copy(genes, m.genes)
	nm, err := NewMatrix(m.Source, genes, cols)
	if err != nil {
		// Shapes are preserved by construction; this cannot happen.
		panic(err)
	}
	return nm
}

// SubMatrix returns a new matrix restricted to the given column indices,
// with a fresh source ID. It is the extraction step used to derive query
// matrices M_Q from database matrices (Section 6.1).
func (m *Matrix) SubMatrix(source int, colIdx []int) (*Matrix, error) {
	genes := make([]ID, len(colIdx))
	cols := make([][]float64, len(colIdx))
	for k, j := range colIdx {
		if j < 0 || j >= len(m.cols) {
			return nil, fmt.Errorf("gene: column index %d out of range [0,%d)", j, len(m.cols))
		}
		genes[k] = m.genes[j]
		cols[k] = m.cols[j]
	}
	return NewMatrix(source, genes, cols)
}

// Database is the gene feature database D: N matrices from N data sources.
type Database struct {
	matrices []*Matrix
	bySource map[int]*Matrix
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{bySource: make(map[int]*Matrix)}
}

// Add appends a matrix; source IDs must be unique.
func (d *Database) Add(m *Matrix) error {
	if _, dup := d.bySource[m.Source]; dup {
		return fmt.Errorf("gene: duplicate data source ID %d", m.Source)
	}
	d.matrices = append(d.matrices, m)
	d.bySource[m.Source] = m
	return nil
}

// Remove deletes the matrix with the given data source ID, reporting
// whether it was present.
func (d *Database) Remove(source int) bool {
	if _, ok := d.bySource[source]; !ok {
		return false
	}
	delete(d.bySource, source)
	for i, m := range d.matrices {
		if m.Source == source {
			d.matrices = append(d.matrices[:i], d.matrices[i+1:]...)
			break
		}
	}
	return true
}

// Len returns N, the number of matrices.
func (d *Database) Len() int { return len(d.matrices) }

// Matrix returns the i-th matrix in insertion order.
func (d *Database) Matrix(i int) *Matrix { return d.matrices[i] }

// Matrices returns all matrices in insertion order; do not mutate.
func (d *Database) Matrices() []*Matrix { return d.matrices }

// BySource returns the matrix with the given data source ID, or nil.
func (d *Database) BySource(source int) *Matrix { return d.bySource[source] }

// GeneUniverse returns the sorted set of distinct gene IDs across all
// matrices.
func (d *Database) GeneUniverse() []ID {
	seen := make(map[ID]struct{})
	for _, m := range d.matrices {
		for _, g := range m.genes {
			seen[g] = struct{}{}
		}
	}
	out := make([]ID, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarizes database shape for reporting.
type Stats struct {
	Matrices      int
	TotalVectors  int
	MinGenes      int
	MaxGenes      int
	MinSamples    int
	MaxSamples    int
	DistinctGenes int
}

// Summary computes Stats over the database.
func (d *Database) Summary() Stats {
	s := Stats{Matrices: d.Len()}
	if d.Len() == 0 {
		return s
	}
	s.MinGenes, s.MinSamples = int(^uint(0)>>1), int(^uint(0)>>1)
	for _, m := range d.matrices {
		n, l := m.NumGenes(), m.Samples()
		s.TotalVectors += n
		if n < s.MinGenes {
			s.MinGenes = n
		}
		if n > s.MaxGenes {
			s.MaxGenes = n
		}
		if l < s.MinSamples {
			s.MinSamples = l
		}
		if l > s.MaxSamples {
			s.MaxSamples = l
		}
	}
	s.DistinctGenes = len(d.GeneUniverse())
	return s
}
