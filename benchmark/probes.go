package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/imgrn/imgrn/internal/cluster"
	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/exec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/plan"
	"github.com/imgrn/imgrn/internal/server"
	"github.com/imgrn/imgrn/internal/shard"
	"github.com/imgrn/imgrn/internal/stats"
	"github.com/imgrn/imgrn/internal/vecmath"
	"github.com/imgrn/imgrn/internal/wal"
)

// probeCalls is the number of timed calls behind every probe's median.
const probeCalls = 200

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// timeCalls times calls invocations of fn and returns the median duration
// of one in nanoseconds. inner > 1 repeats fn inside each timed call, for
// bodies too short for the clock.
func timeCalls(calls, inner int, fn func() error) (float64, error) {
	ns := make([]float64, calls)
	for i := range ns {
		t0 := time.Now()
		for j := 0; j < inner; j++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		ns[i] = float64(time.Since(t0)) / float64(inner)
	}
	return median(ns), nil
}

// Units a probe's nanoseconds are divided by.
const (
	perUS = 1e3
	perMS = 1e6
)

// runProbes times calls into single packages on inputs taken from the
// workloads: the layers no HTTP response or scrape can isolate. It runs
// while the servers are idle.
func runProbes(ctx context.Context, env *environment, cfg runConfig, res *workloadResult) error {
	calls := probeCalls
	if cfg.quick {
		calls = 20
	}
	in, err := generate(workloadByName("traverse-largeN"), cfg.seed)
	if err != nil {
		return err
	}
	// probe records the median of one timed function under name; after
	// the first failure the rest are skipped and the error is returned.
	var failed error
	probe := func(name string, inner int, per float64, fn func() error) {
		if failed != nil {
			return
		}
		ns, err := timeCalls(calls, inner, fn)
		if err != nil {
			failed = fmt.Errorf("probe %s: %w", name, err)
			return
		}
		res.setLayer(name, ns/per)
	}

	// The in-process twin of traverse-largeN: the same requests through
	// the coordinator without HTTP, and real answers for the codecs below.
	coord, err := shard.Build(in.ds.DB, shard.Options{NumShards: in.w.shards, Index: serverIndexOptions})
	if err != nil {
		return err
	}
	var queries []*gene.Matrix
	for _, r := range in.reads {
		m, err := serverMatrix(r.items[0].matrix)
		if err != nil {
			return err
		}
		queries = append(queries, m)
	}
	params := coreParams(in.reads[0].items[0].params, 0)
	var answers []core.Answer
	n := 0
	probe("shard.query_inproc_ms", 1, perMS, func() error {
		a, _, err := coord.QueryContext(ctx, queries[n%len(queries)], params)
		if len(a) > len(answers) {
			answers = a
		}
		n++
		return err
	})
	if failed != nil {
		return failed
	}

	// Serve path: the request and reply bodies of /query.
	s := newStream(in, phaseTraced, 0, 1, false)
	reqBody := s.render(nil, op{kind: opQuery, read: 0})
	probe("server.decode_us", 1, perUS, func() error {
		var req server.QueryRequest
		dec := json.NewDecoder(bytes.NewReader(reqBody))
		dec.DisallowUnknownFields()
		sink = &req
		return dec.Decode(&req)
	})
	replyBody, err := json.Marshal(queryResponse{Answers: toJSON(answers)})
	if err != nil {
		return err
	}
	var reply server.QueryResponse
	if err := json.Unmarshal(replyBody, &reply); err != nil {
		return fmt.Errorf("probe server.encode_us: server.QueryResponse does not read the wire format: %w", err)
	}
	probe("server.encode_us", 1, perUS, func() error {
		return json.NewEncoder(io.Discard).Encode(reply)
	})

	// Plan resolution and its wire form.
	preq := plan.Request{Samples: 1024, Pivot: true, Signatures: true, Markov: true, Batch: true, QueryGenes: 5}
	pl, err := plan.Resolve(preq)
	if err != nil {
		return err
	}
	probe("plan.resolve_us", 100, perUS, func() error {
		p, err := plan.Resolve(preq)
		sink = p
		return err
	})
	probe("plan.wire_us", 10, perUS, func() error {
		data, err := pl.EncodeWire()
		if err != nil {
			return err
		}
		p, err := plan.DecodeWire(data)
		sink = p
		return err
	})

	// One cluster leg's envelope: params out, a third of the answers back.
	type envelope struct {
		Params  cluster.WireParams   `json:"params"`
		Answers []cluster.WireAnswer `json:"answers"`
	}
	leg := answers[:(len(answers)+2)/3]
	probe("cluster.envelope_us", 1, perUS, func() error {
		data, err := json.Marshal(envelope{cluster.ParamsToWire(params), cluster.AnswersToWire(leg)})
		if err != nil {
			return err
		}
		var back envelope
		if err := json.Unmarshal(data, &back); err != nil {
			return err
		}
		sink = back.Params.Params()
		sink = cluster.AnswersFromWire(back.Answers)
		return nil
	})

	// Kernels, on standardized columns of the longest generated matrix;
	// shapes follow the mc-cold requests (1024 samples, 8 genes).
	var big *gene.Matrix
	for _, m := range in.ds.DB.Matrices() {
		if big == nil || m.Samples() > big.Samples() {
			big = m
		}
	}
	l := big.Samples()
	xs, xt := big.StdCol(0), big.StdCol(1)
	const rows, nsrc = 1024, 8
	mat := make([]float64, rows*l)
	for r := 0; r < rows; r++ {
		copy(mat[r*l:], big.StdCol(r%big.NumGenes()))
	}
	srcs := make([][]float64, nsrc)
	for k := range srcs {
		srcs[k] = big.StdCol(k)
	}
	dst := make([]float64, nsrc*rows)
	probe("vecmath.matmul_ns_per_mac", 1, float64(rows*l*nsrc), func() error {
		vecmath.MatMulRowsInto(dst, mat, rows, l, srcs)
		return nil
	})
	est := stats.NewEstimator(cfg.seed)
	probe("stats.edgeprob_us", 1, perUS, func() error {
		sink = est.EdgeProbability(xs, xt, 1024)
		return nil
	})
	var pb stats.PermBatch
	probe("stats.permbatch_fill_us", 1, perUS, func() error {
		pb.Fill(est, xt, 1024)
		return nil
	})
	q8, _, err := in.ds.ExtractQuery(nil, 8)
	if err != nil {
		return err
	}
	sc, pr := grn.NewRandomizedScorer(cfg.seed, 1024), grn.NewPruner(cfg.seed, 0)
	probe("grn.infer_pruned_ms", 1, perMS, func() error {
		g, _, err := grn.InferPruned(q8, sc, pr, 0.4)
		sink = g
		return err
	})

	// Gather and scheduler.
	runs := make([][]core.Answer, 3)
	for k, a := range answers {
		runs[k%3] = append(runs[k%3], a)
	}
	probe("core.merge_us", 1, perUS, func() error {
		sink = core.MergeAnswerRuns(runs)
		return nil
	})
	const items = 4096
	probe("exec.foreach_ns_per_item", 1, items, func() error {
		ec := exec.New(ctx, nil, 2)
		defer ec.Close()
		return ec.ForEach(items, func(int) error { return nil })
	})

	// Index construction and insertion, on a 16-source slice so that 200
	// builds fit in a run. AddMatrix mutates its database, so it gets an
	// index over a copy.
	small, grow := gene.NewDatabase(), gene.NewDatabase()
	for _, m := range in.ds.DB.Matrices()[:16] {
		if err := small.Add(m); err != nil {
			return err
		}
		if err := grow.Add(m); err != nil {
			return err
		}
	}
	probe("index.build_ms", 1, perMS, func() error {
		idx, err := index.Build(small, serverIndexOptions)
		sink = idx
		return err
	})
	idx, err := index.Build(grow, serverIndexOptions)
	if err != nil {
		return err
	}
	source := 1_000_000
	probe("index.add_matrix_ms", 1, perMS, func() error {
		// Building the matrix is timed too; it is a copy of a few KB next
		// to an embedding.
		m, err := withSource(in.addMatrix[source%addTemplates], source)
		if err != nil {
			return err
		}
		source++
		return idx.AddMatrix(m)
	})

	// Codec and log.
	m0 := in.addMatrix[0]
	probe("gene.codec_us", 1, perUS, func() error {
		var buf bytes.Buffer
		if err := gene.WriteMatrix(&buf, m0); err != nil {
			return err
		}
		back, err := gene.ReadMatrix(&buf)
		sink = back
		return err
	})
	record, err := wal.EncodeAddMatrix(m0)
	if err != nil {
		return err
	}
	walDir, err := os.MkdirTemp(env.runDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	for _, c := range []struct {
		name string
		sync bool
	}{{"wal.append_fsync_us", true}, {"wal.append_nosync_us", false}} {
		wr, _, err := wal.Open(filepath.Join(walDir, c.name), c.sync, nil)
		if err != nil {
			return err
		}
		probe(c.name, 1, perUS, func() error { return wr.Append(record) })
		if err := wr.Close(); err != nil {
			return err
		}
	}
	return failed
}
