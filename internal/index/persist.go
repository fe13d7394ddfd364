package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/pagestore"
	"github.com/imgrn/imgrn/internal/pivot"
	"github.com/imgrn/imgrn/internal/rstar"
)

// Binary index format (little-endian):
//
//	magic    [8]byte  "IMGRNIX1"
//	d        uint32   pivots per matrix
//	bits     uint32   signature width
//	pageSize uint32
//	buffer   uint32   BufferPages (> 0: readers absorb repeat touches)
//	maxFill  uint32   R*-tree node capacity
//	sources  uint32   number of embedded matrices
//	repeat sources times:
//	  source   int64
//	  genes    uint32 (n_i)
//	  pivots   d × int32 (column indices)
//	  X, Y     n_i × d float64 each
//	items    uint64   leaf point count
//	repeat items times:
//	  point  (2d+1) × float64
//	  ref    uint64
//
// The R*-tree is rebuilt deterministically by bulk loading the stored
// points; node signatures, leaf join tables, page mapping and the inverted
// file are recomputed at load time (they are cheap relative to the Monte
// Carlo embedding, which is what persistence avoids repeating).

var idxMagic = [8]byte{'I', 'M', 'G', 'R', 'N', 'I', 'X', '1'}

// Save serializes the index (embeddings + embedded points + options).
func (x *Index) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(idxMagic[:]); err != nil {
		return err
	}
	hdr := []uint32{
		uint32(x.opts.D), uint32(x.opts.Bits), uint32(x.opts.PageSize),
		uint32(x.opts.BufferPages), uint32(x.opts.MaxFill),
		uint32(len(x.embeddings)),
	}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	// Embeddings, ordered by database iteration order for determinism.
	for _, m := range x.db.Matrices() {
		emb, ok := x.embeddings[m.Source]
		if !ok {
			continue
		}
		if err := writeEmbedding(bw, m.Source, emb); err != nil {
			return err
		}
	}
	// Leaf items via tree walk.
	var items []rstar.Item
	x.tree.Walk(func(n *rstar.Node) bool {
		if n.IsLeaf() {
			for i := 0; i < n.NumEntries(); i++ {
				items = append(items, n.Item(i))
			}
		}
		return true
	})
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(items))); err != nil {
		return err
	}
	dim := 2*x.opts.D + 1
	buf := make([]byte, 8*dim+8)
	for _, it := range items {
		for k, v := range it.Point {
			binary.LittleEndian.PutUint64(buf[8*k:], math.Float64bits(v))
		}
		binary.LittleEndian.PutUint64(buf[8*dim:], it.Ref)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeEmbedding(w io.Writer, source int, emb *pivot.Embedding) error {
	if err := binary.Write(w, binary.LittleEndian, int64(source)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(emb.X))); err != nil {
		return err
	}
	piv := make([]int32, len(emb.PivotIdx))
	for i, p := range emb.PivotIdx {
		piv[i] = int32(p)
	}
	if err := binary.Write(w, binary.LittleEndian, piv); err != nil {
		return err
	}
	for _, rows := range [][][]float64{emb.X, emb.Y} {
		for _, row := range rows {
			if err := binary.Write(w, binary.LittleEndian, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load reconstructs an index previously written by Save, attached to db
// (which must be the same database the index was built over).
func Load(r io.Reader, db *gene.Database) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if magic != idxMagic {
		return nil, fmt.Errorf("index: bad magic %q, not an IM-GRN index file", magic[:])
	}
	hdr := make([]uint32, 6)
	if err := binary.Read(br, binary.LittleEndian, hdr); err != nil {
		return nil, fmt.Errorf("index: reading header: %w", err)
	}
	opts := Options{
		D: int(hdr[0]), Bits: int(hdr[1]), PageSize: int(hdr[2]),
		BufferPages: int(hdr[3]), MaxFill: int(hdr[4]),
	}.withDefaults()
	nSources := int(hdr[5])
	const maxPlausible = 1 << 28
	if opts.D > 64 || nSources > maxPlausible {
		return nil, fmt.Errorf("index: implausible header (d=%d, sources=%d)", opts.D, nSources)
	}
	start := time.Now()
	idx := &Index{
		db:         db,
		opts:       opts,
		embeddings: make(map[int]*pivot.Embedding, nSources),
		inverted:   nil, // rebuilt below
		acc:        pagestore.New(opts.PageSize, opts.BufferPages),
		heap:       make(map[int]heapInfo, nSources),
	}
	idx.store = pagestore.NewStore(idx.acc)
	for i := 0; i < nSources; i++ {
		source, emb, err := readEmbedding(br, opts.D)
		if err != nil {
			return nil, fmt.Errorf("index: reading embedding %d: %w", i, err)
		}
		m := db.BySource(source)
		if m == nil {
			return nil, fmt.Errorf("index: file references source %d absent from database", source)
		}
		if len(emb.X) != m.NumGenes() {
			return nil, fmt.Errorf("index: source %d has %d embedded genes, database matrix has %d",
				source, len(emb.X), m.NumGenes())
		}
		idx.embeddings[source] = emb
		first := idx.store.Append(encodeStdColumns(m))
		idx.heap[source] = heapInfo{first: first, colBytes: m.Samples() * 8}
	}
	var itemCount uint64
	if err := binary.Read(br, binary.LittleEndian, &itemCount); err != nil {
		return nil, fmt.Errorf("index: reading item count: %w", err)
	}
	if itemCount > maxPlausible {
		return nil, fmt.Errorf("index: implausible item count %d", itemCount)
	}
	dim := 2*opts.D + 1
	items := make([]rstar.Item, itemCount)
	buf := make([]byte, 8*dim+8)
	for i := range items {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("index: reading item %d: %w", i, err)
		}
		pt := make([]float64, dim)
		for k := range pt {
			pt[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*k:]))
		}
		items[i] = rstar.Item{Point: pt, Ref: binary.LittleEndian.Uint64(buf[8*dim:])}
	}
	tree, err := rstar.NewTree(treeConfig(dim, opts.MaxFill))
	if err != nil {
		return nil, err
	}
	if err := tree.BulkLoad(items); err != nil {
		return nil, err
	}
	idx.tree = tree
	idx.stats.Pages = uint64(tree.AssignPages(idx.acc))
	idx.rebuildInvertedFile()
	idx.buildSignatures()
	idx.stats.Elapsed = time.Since(start)
	idx.stats.Vectors = len(items)
	idx.stats.TreeNodes = tree.NodeCount()
	idx.stats.TreeHeight = tree.Height()
	return idx, nil
}

// RestoreOptions replaces a loaded index's construction options with the
// full option set persisted by a higher layer (the durable store's
// manifest). The IMGRNIX1 header stores only the five structural fields
// (d, bits, pageSize, buffer, maxFill); the estimator fields — Seed,
// Samples, Selection, RandomPivots — are not in the file, yet online
// AddMatrix needs them to embed new matrices with the same
// (Seed, Source)-derived randomness as the original build. The
// structural fields of opts must match the loaded header.
func (x *Index) RestoreOptions(opts Options) error {
	opts = opts.withDefaults()
	if opts.D != x.opts.D || opts.Bits != x.opts.Bits ||
		opts.PageSize != x.opts.PageSize || opts.BufferPages != x.opts.BufferPages ||
		opts.MaxFill != x.opts.MaxFill {
		return fmt.Errorf("index: restored options (d=%d bits=%d page=%d buf=%d fill=%d) disagree with snapshot header (d=%d bits=%d page=%d buf=%d fill=%d)",
			opts.D, opts.Bits, opts.PageSize, opts.BufferPages, opts.MaxFill,
			x.opts.D, x.opts.Bits, x.opts.PageSize, x.opts.BufferPages, x.opts.MaxFill)
	}
	x.opts = opts
	return nil
}

func readEmbedding(r io.Reader, d int) (int, *pivot.Embedding, error) {
	var source int64
	if err := binary.Read(r, binary.LittleEndian, &source); err != nil {
		return 0, nil, err
	}
	var genes uint32
	if err := binary.Read(r, binary.LittleEndian, &genes); err != nil {
		return 0, nil, err
	}
	if genes > 1<<24 {
		return 0, nil, fmt.Errorf("implausible gene count %d", genes)
	}
	piv := make([]int32, d)
	if err := binary.Read(r, binary.LittleEndian, piv); err != nil {
		return 0, nil, err
	}
	emb := &pivot.Embedding{
		D:        d,
		PivotIdx: make([]int, d),
		X:        make([][]float64, genes),
		Y:        make([][]float64, genes),
	}
	for i, p := range piv {
		emb.PivotIdx[i] = int(p)
	}
	for _, rows := range []*[][]float64{&emb.X, &emb.Y} {
		for j := range *rows {
			row := make([]float64, d)
			if err := binary.Read(r, binary.LittleEndian, row); err != nil {
				return 0, nil, err
			}
			(*rows)[j] = row
		}
	}
	return int(source), emb, nil
}

func (x *Index) rebuildInvertedFile() {
	x.inverted = newInvertedFromDB(x.db, x.opts.Bits)
}

// SaveFile writes the index to the named file.
func (x *Index) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := x.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads an index from the named file.
func LoadFile(path string, db *gene.Database) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, db)
}
