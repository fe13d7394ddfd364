package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

type deployKind int

const (
	deployStandalone deployKind = iota
	deployDurable
	deployCluster
)

// Operation kinds; a workload's pattern is a string of them that every
// client repeats.
const (
	opQuery  = 'Q'
	opAdd    = 'A'
	opRemove = 'R'
)

// removeLag is how many cycles after its add a source is removed again.
// Warm-up pre-adds removeLag sources per client, so every measured cycle
// finds its remove target and the database size stays constant.
const removeLag = 16

// workload is one deployment plus one traffic mix. The five definitions
// below are fixed: later changes cite them by name.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	db              synth.DBParams // Seed is filled in per run
	deploy          deployKind
	shards          int   // -shards, or the shard-server count of a cluster
	replication     int   // cluster only
	checkpointBytes int64 // durable only

	clients   int    // closed-loop clients of the measured phase
	batch     bool   // reads go to /query-batch
	pattern   string // per-client op cycle
	tracedOps int    // fixed op count of the single-client traced pass

	// pool builds the distinct read requests (as their query items) from
	// the generated dataset.
	pool func(ds *synth.Dataset, rng *randgen.Rand) ([][]queryItem, error)
	// freshSeed gives every read its own Monte Carlo seed (by op
	// ordinal), so no request ever finds a warm edge-probability cache.
	freshSeed bool
	// baseOnly restricts the answer check to sources of the generated
	// database: with concurrent writes, only their answers are the same
	// under every interleaving.
	baseOnly bool
}

var largeNDB = synth.DBParams{N: 800, NMin: 20, NMax: 40, LMin: 10, LMax: 20, Dist: synth.Uniform, GenePool: 40}

var workloads = []*workload{
	{
		name: "traverse-largeN",
		why:  "N=800 over 3 shards, analytic 5-gene queries: index descent and pruning dominate, inference and Monte Carlo do almost nothing",
		db:   largeNDB, deploy: deployStandalone, shards: 3,
		clients: 2, pattern: "Q", tracedOps: 600,
		pool: soloPool(64, 5, queryParams{Gamma: 0.4, Alpha: 0.3, Seed: 1000, Analytic: true}),
	},
	{
		name: "mc-cold",
		why:  "N=200, 8-gene Monte Carlo queries (1024 samples) with a fresh seed each, one client with workers=2: refinement kernels and the scheduler dominate, no cache hits",
		// Matrices of 30 to 34 genes over a pool of 40: a matrix can only
		// match when it holds all 8 query genes, which at 40 genes is
		// certain and at 20 nearly impossible, so with the usual 20-to-40
		// range a handful of wide matrices carries the cost and the work
		// (Monte Carlo estimates per query) swings by 15 % from seed to
		// seed; the narrow range and 128 requests bring that to 3 %.
		db:     synth.DBParams{N: 200, NMin: 30, NMax: 34, LMin: 10, LMax: 20, Dist: synth.Uniform, GenePool: 40},
		deploy: deployStandalone, shards: 1,
		clients: 1, pattern: "Q", tracedOps: 400, freshSeed: true,
		pool: soloPool(128, 8, queryParams{Gamma: 0.4, Alpha: 0.3, Samples: 1024, Workers: 2}),
	},
	{
		name:   "batch-explore",
		why:    "N=300, /query-batch of 8 mixed-width items on a warm cache: one masked descent per group plus NDJSON framing, the largest serve-path share",
		db:     synth.DBParams{N: 300, NMin: 15, NMax: 30, LMin: 10, LMax: 20, Dist: synth.Uniform, GenePool: 40},
		deploy: deployStandalone, shards: 1,
		clients: 2, batch: true, pattern: "Q", tracedOps: 320,
		pool: batchPool(16, queryParams{Gamma: 0.4, Alpha: 0.3, Samples: 48, Seed: 3000}),
	},
	{
		name:   "durable-mixed",
		why:    "N=300 over 2 durable shards, 75% analytic reads beside 25% fsync-before-ack adds and removes with size-triggered checkpoints: the only workload where the WAL and snapshot store work",
		db:     synth.DBParams{N: 300, NMin: 15, NMax: 30, LMin: 10, LMax: 20, Dist: synth.Uniform, GenePool: 40},
		deploy: deployDurable, shards: 2, checkpointBytes: 256 << 10,
		clients: 2, pattern: "QQAQQQRQ", tracedOps: 640, baseOnly: true,
		pool: soloPool(64, 5, queryParams{Gamma: 0.4, Alpha: 0.3, Seed: 1000, Analytic: true}),
	},
	{
		name: "cluster-3x2",
		why:  "the traverse-largeN database and requests through a coordinator and 3 durable shard servers at replication 2, every 8th op a replicated write: adds only the cluster tier to traverse-largeN",
		db:   largeNDB, deploy: deployCluster, shards: 3, replication: 2,
		clients: 2, pattern: "QQQQQQQAQQQQQQQR", tracedOps: 480, baseOnly: true,
		pool: soloPool(64, 5, queryParams{Gamma: 0.4, Alpha: 0.3, Seed: 1000, Analytic: true}),
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// queryItem is one query of a read request, kept in parsed form for the
// in-process reference.
type queryItem struct {
	matrix *gene.Matrix
	params queryParams
}

// readReq is one distinct read request of a workload's pool. body[0] is
// the untraced and body[1] the traced rendering ("trace": true on every
// item); both are JSON up to the point where a per-op seed is spliced in,
// followed by tail.
type readReq struct {
	items []queryItem
	head  [2][]byte
	tail  [2][]byte
}

// seedMark stands in for the per-op seed while a body is marshalled; it
// is cut out again by splitAtSeed.
const seedMark = 18446744073709551557

func splitAtSeed(body []byte) (head, tail []byte) {
	mark := []byte(strconv.FormatUint(seedMark, 10))
	i := bytes.Index(body, mark)
	if i < 0 {
		return body, nil
	}
	return body[:i:i], body[i+len(mark):]
}

func matrixJSON(m *gene.Matrix) (genes []string, cols [][]float64) {
	for j := 0; j < m.NumGenes(); j++ {
		genes = append(genes, strconv.Itoa(int(m.Gene(j))))
		cols = append(cols, m.Col(j))
	}
	return genes, cols
}

// newReadReq renders a request for the given items, once untraced and
// once traced. splice marks the seed of the (single) item as per-op.
func newReadReq(items []queryItem, batch, splice bool) (readReq, error) {
	r := readReq{items: items}
	for t := 0; t < 2; t++ {
		bodies := make([]queryBody, len(items))
		for i, it := range items {
			genes, cols := matrixJSON(it.matrix)
			p := it.params
			p.Trace = t == 1
			if splice {
				p.Seed = seedMark
			}
			bodies[i] = queryBody{Genes: genes, Columns: cols, Params: p}
		}
		var v any = bodies[0]
		if batch {
			v = batchBody{Queries: bodies}
		}
		body, err := json.Marshal(v)
		if err != nil {
			return r, err
		}
		r.head[t], r.tail[t] = splitAtSeed(body)
	}
	return r, nil
}

// soloPool extracts n connected width-gene query matrices from the
// dataset (the paper's Section 6.1 query workload) for /query.
func soloPool(n, width int, params queryParams) func(*synth.Dataset, *randgen.Rand) ([][]queryItem, error) {
	return func(ds *synth.Dataset, rng *randgen.Rand) ([][]queryItem, error) {
		pool := make([][]queryItem, n)
		for i := range pool {
			q, _, err := ds.ExtractQuery(rng, width)
			if err != nil {
				return nil, err
			}
			pool[i] = []queryItem{{q, params}}
		}
		return pool, nil
	}
}

// batchPool builds n batches of 8 items: two 8-gene base regions, each
// probed at widths 8, 6, 4 and 2 (prefixes of the BFS-ordered extraction,
// so every width stays connected) — the exploration pattern of the repo's
// own batch benchmark.
func batchPool(n int, params queryParams) func(*synth.Dataset, *randgen.Rand) ([][]queryItem, error) {
	return func(ds *synth.Dataset, rng *randgen.Rand) ([][]queryItem, error) {
		pool := make([][]queryItem, n)
		for i := range pool {
			var items []queryItem
			for b := 0; b < 2; b++ {
				base, _, err := ds.ExtractQuery(rng, 8)
				if err != nil {
					return nil, err
				}
				for _, width := range []int{8, 6, 4, 2} {
					cols := make([]int, width)
					for j := range cols {
						cols[j] = j
					}
					q, err := base.SubMatrix(-1-len(items), cols)
					if err != nil {
						return nil, err
					}
					items = append(items, queryItem{q, params})
				}
			}
			pool[i] = items
		}
		return pool, nil
	}
}

// inputs is everything one run of a workload sends, generated from the
// seed alone.
type inputs struct {
	w    *workload
	seed uint64
	ds   *synth.Dataset
	// dbBytes is the gene.WriteDatabase size of the generated database.
	dbBytes int64
	reads   []readReq
	// addTail[i] is the part of an /add-matrix body after the source ID;
	// addMatrix[i] is the same matrix for the reference and byte counts.
	addTail   [][]byte
	addMatrix []*gene.Matrix
}

const addTemplates = 32

var addHead = []byte(`{"source":`)

func generate(w *workload, seed uint64) (*inputs, error) {
	p := w.db
	p.Seed = seed
	ds, err := synth.GenerateDatabase(p)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, ds: ds}
	var buf bytes.Buffer
	if err := gene.WriteDatabase(&buf, ds.DB); err != nil {
		return nil, err
	}
	in.dbBytes = int64(buf.Len())
	rng := randgen.New(randgen.SeedFrom(seed, 1))
	pool, err := w.pool(ds, rng)
	if err != nil {
		return nil, fmt.Errorf("%s: building the request pool: %w", w.name, err)
	}
	for _, items := range pool {
		r, err := newReadReq(items, w.batch, w.freshSeed)
		if err != nil {
			return nil, err
		}
		in.reads = append(in.reads, r)
	}
	// Matrices for /add-matrix: same shape distribution as the database.
	for i := 0; i < addTemplates; i++ {
		n := rng.IntIn(p.NMin, p.NMax)
		m, _, err := synth.GenerateMatrix(rng, 0, synth.SampleIDs(rng, p.GenePool, n),
			synth.GenParams{Genes: n, Samples: rng.IntIn(p.LMin, p.LMax), Dist: p.Dist})
		if err != nil {
			return nil, err
		}
		genes, cols := matrixJSON(m)
		body, err := json.Marshal(addBody{Source: 0, Genes: genes, Columns: cols})
		if err != nil {
			return nil, err
		}
		in.addTail = append(in.addTail, body[len(addHead)+1:]) // after `{"source":0`
		in.addMatrix = append(in.addMatrix, m)
	}
	return in, nil
}

// op is one request of a client's stream.
type op struct {
	kind   byte
	path   string
	read   int    // pool index of a read
	seed   uint64 // per-op seed of a fresh-seed read, else 0
	source int    // source of a write
	items  int    // query items carried (0 for writes)
}

// Phases take disjoint seed and source ranges, so that no phase finds
// state (a warm cache family, an added source) left by another.
const (
	phaseWarm = iota
	phaseMeasured
	phaseTraced
	phaseReplay
)

// stream generates the fixed request sequence of one client: client c of
// n takes reads c, c+n, … of the phase, and owns a private range of
// source IDs for its writes.
type stream struct {
	in      *inputs
	phase   int
	c, n    int
	pattern string
	traced  bool
	i       int // ops generated so far
	reads   int
	base    int // first source ID of this stream
}

func newStream(in *inputs, phase, c, n int, traced bool) *stream {
	return &stream{in: in, phase: phase, c: c, n: n, pattern: in.w.pattern, traced: traced,
		base: 1_000_000*(phase+1) + 100_000*c}
}

// source is the ID added in cycle k (k ≥ −removeLag; negative cycles are
// the preload).
func (s *stream) source(k int) int { return s.base + removeLag + k }

// preload lists the adds that must be acknowledged before the stream
// starts, so that its first removeLag removes find their targets.
func (s *stream) preload() []op {
	if !strings.ContainsRune(s.pattern, opRemove) {
		return nil
	}
	ops := make([]op, removeLag)
	for j := range ops {
		ops[j] = op{kind: opAdd, path: "/add-matrix", source: s.source(j - removeLag)}
	}
	return ops
}

func (s *stream) next() op {
	pat := s.pattern
	kind, cycle := pat[s.i%len(pat)], s.i/len(pat)
	s.i++
	switch kind {
	case opAdd:
		return op{kind: opAdd, path: "/add-matrix", source: s.source(cycle)}
	case opRemove:
		return op{kind: opRemove, path: "/remove-matrix", source: s.source(cycle - removeLag)}
	}
	g := s.reads*s.n + s.c // ordinal of this read within the phase
	s.reads++
	o := op{kind: opQuery, path: "/query", read: g % len(s.in.reads)}
	o.items = len(s.in.reads[o.read].items)
	if s.in.w.batch {
		o.path = "/query-batch"
	}
	if s.in.w.freshSeed {
		o.seed = randgen.SeedFrom(s.in.seed, uint64(s.phase), uint64(g)) | 1
	}
	return o
}

// render appends the request body of o to buf.
func (s *stream) render(buf []byte, o op) []byte {
	switch o.kind {
	case opAdd:
		buf = append(buf, addHead...)
		buf = strconv.AppendInt(buf, int64(o.source), 10)
		return append(buf, s.in.addTail[o.source%addTemplates]...)
	case opRemove:
		buf = append(buf, addHead...)
		buf = strconv.AppendInt(buf, int64(o.source), 10)
		return append(buf, '}')
	}
	t := 0
	if s.traced {
		t = 1
	}
	r := &s.in.reads[o.read]
	buf = append(buf, r.head[t]...)
	if r.tail[t] != nil {
		buf = strconv.AppendUint(buf, o.seed, 10)
		buf = append(buf, r.tail[t]...)
	}
	return buf
}

// streamHashOps is the length of the request-stream prefix (per client)
// that loadgen.stream_sha256 covers. Measured phases run for a time, not
// a count, so the hash is taken over a fixed prefix of what they send.
const streamHashOps = 1024

// streamSHA256 hashes the preload and the first streamHashOps requests
// (path and body) of every client of the measured phase.
func streamSHA256(in *inputs) string {
	h := sha256.New()
	var buf []byte
	for c := 0; c < in.w.clients; c++ {
		s := newStream(in, phaseMeasured, c, in.w.clients, false)
		ops := s.preload()
		for i := 0; i < streamHashOps; i++ {
			ops = append(ops, s.next())
		}
		for _, o := range ops {
			buf = s.render(buf[:0], o)
			h.Write([]byte(o.path))
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
