package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// The JSON wire format of imgrn-server, as far as the benchmark reads and
// writes it. The harness keeps its own copy of these shapes: the HTTP API
// is the interface under test, and a server that changes it should fail
// the benchmark rather than silently share a changed struct with it.

type queryParams struct {
	Gamma    float64 `json:"gamma"`
	Alpha    float64 `json:"alpha"`
	Samples  int     `json:"samples,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	Analytic bool    `json:"analytic,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	Trace    bool    `json:"trace,omitempty"`
}

type queryBody struct {
	Genes   []string    `json:"genes"`
	Columns [][]float64 `json:"columns"`
	Params  queryParams `json:"params"`
}

type batchBody struct {
	Queries []queryBody `json:"queries"`
}

type addBody struct {
	Source  int         `json:"source"`
	Genes   []string    `json:"genes"`
	Columns [][]float64 `json:"columns"`
}

type edgeJSON struct {
	S    int     `json:"s"`
	T    int     `json:"t"`
	Prob float64 `json:"prob"`
}

type answerJSON struct {
	Source int        `json:"source"`
	Prob   float64    `json:"prob"`
	Genes  []string   `json:"genes"`
	Edges  []edgeJSON `json:"edges"`
}

// queryStats are the per-request cost counters of a response's "stats"
// block that the per-layer metrics are built from.
type queryStats struct {
	NodePairsVisited  int     `json:"nodePairsVisited"`
	NodePairsPruned   int     `json:"nodePairsPruned"`
	PointPairsChecked int     `json:"pointPairsChecked"`
	PointPairsPruned  int     `json:"pointPairsPruned"`
	CandidateMatrices int     `json:"candidateMatrices"`
	MatricesPrunedL5  int     `json:"matricesPrunedL5"`
	Answers           int     `json:"answers"`
	IOPages           uint64  `json:"ioPages"`
	IOBufferHits      uint64  `json:"ioBufferHits"`
	CacheHits         int     `json:"cacheHits"`
	CacheMisses       int     `json:"cacheMisses"`
	InferSeconds      float64 `json:"inferSeconds"`
	TraversalSeconds  float64 `json:"traversalSeconds"`
	RefinementSeconds float64 `json:"refinementSeconds"`
	MarkovSeconds     float64 `json:"markovPruneSeconds"`
	MonteCarloSeconds float64 `json:"monteCarloSeconds"`
	TotalSeconds      float64 `json:"totalSeconds"`
}

type spanJSON struct {
	Stage        string  `json:"stage"`
	BeginSeconds float64 `json:"beginSeconds"`
	DurSeconds   float64 `json:"durSeconds"`
	In           int     `json:"in"`
	Out          int     `json:"out"`
}

type queryResponse struct {
	Answers []answerJSON `json:"answers"`
	Stats   queryStats   `json:"stats"`
	Trace   []spanJSON   `json:"trace"`
}

// batchFrame is one NDJSON line of a /query-batch response: an item frame
// (Index, Answers, Stats, Trace, or Error) or the terminal done frame.
type batchFrame struct {
	Index   int          `json:"index"`
	Answers []answerJSON `json:"answers"`
	Stats   *queryStats  `json:"stats"`
	Trace   []spanJSON   `json:"trace"`
	Error   string       `json:"error"`

	Done         bool    `json:"done"`
	Queries      int     `json:"queries"`
	Errors       int     `json:"errors"`
	Groups       int     `json:"groups"`
	TotalSeconds float64 `json:"totalSeconds"`
}

// batchFrames decodes every line of a /query-batch reply.
func batchFrames(body []byte) ([]batchFrame, error) {
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	frames := make([]batchFrame, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &frames[i]); err != nil {
			return nil, fmt.Errorf("batch frame %q: %w", line, err)
		}
	}
	return frames, nil
}
