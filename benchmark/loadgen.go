package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phaseSpec describes one closed-loop phase: clients goroutines, each on
// its own keep-alive connection, each sending its next request only after
// the previous reply has been read in full.
type phaseSpec struct {
	in      *inputs
	url     string
	phase   int
	clients int
	traced  bool
	pattern string // overrides the workload's pattern when set

	// A phase runs either for a duration or for a fixed total op count
	// (split evenly over the clients).
	duration time.Duration
	ops      int
	// budget is the time the phase is expected to take; it is aborted, and
	// counts as failed, at three times that.
	budget time.Duration

	// keepAll keeps every response body (the traced pass decodes all of
	// them afterwards); otherwise bodies of sampled reads are kept.
	keepAll bool
	pids    []int // server processes whose CPU time is charged to the phase
	// rssAtOps, when positive, reads the servers' peak RSS the moment the
	// phase has completed that many ops, so that memory which grows with
	// every request is compared at equal work rather than at equal time.
	rssAtOps int
}

// kept is one response body retained for the post-run checks.
type kept struct {
	op      op
	client  int
	ordinal int // client-local op ordinal
	latMS   float64
	body    []byte
}

type phaseResult struct {
	wall      time.Duration
	attempted int
	failed    int
	items     int       // query items answered successfully
	readMS    []float64 // latency of every successful read request
	addMS     []float64 // ack latency of every successful /add-matrix
	respBytes int64
	kept      []kept
	live      map[int]bool // write outcome per source: true = acked add, false = acked remove
	errors    []string     // first few failure messages
	serverCPU float64      // seconds, all server processes
	cpuByPID  []float64    // seconds per process, parallel to phaseSpec.pids
	clientCPU float64      // seconds, this process
	rssMB     float64      // peak RSS at rssAtOps completed ops; 0 when the phase ended first
}

// sampleEvery and sampleFirst define the deterministic response sample of
// a measured phase: per client, the first sampleFirst reads and then every
// sampleEvery-th.
const (
	sampleEvery = 16
	sampleFirst = 32
)

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// send issues one request and reads the whole reply into rbuf.
func send(ctx context.Context, hc *http.Client, url string, body []byte, rbuf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	rbuf.Reset()
	if _, err := io.Copy(rbuf, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// batchDone checks the terminal frame of an NDJSON batch reply without
// decoding the item frames.
func batchDone(body []byte, items int) error {
	body = bytes.TrimRight(body, "\n")
	last := body[bytes.LastIndexByte(body, '\n')+1:]
	var f batchFrame
	if err := json.Unmarshal(last, &f); err != nil {
		return fmt.Errorf("batch reply: bad terminal frame: %w", err)
	}
	if !f.Done || f.Errors != 0 || f.Queries != items {
		return fmt.Errorf("batch reply: terminal frame %s", last)
	}
	return nil
}

func runPhase(ctx context.Context, spec phaseSpec) (*phaseResult, error) {
	ctx, cancel := context.WithTimeout(ctx, 3*spec.budget)
	defer cancel()

	outs := make([]phaseResult, spec.clients)
	cpu0, err := cpuSeconds(spec.pids)
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	start := time.Now()
	deadline := start.Add(spec.duration)

	var completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.live = make(map[int]bool)
			s := newStream(spec.in, spec.phase, c, spec.clients, spec.traced)
			if spec.pattern != "" {
				s.pattern = spec.pattern
			}
			myOps := spec.ops / spec.clients
			if c < spec.ops%spec.clients {
				myOps++
			}
			hc := newClient()
			defer hc.CloseIdleConnections()
			var buf []byte
			var rbuf bytes.Buffer
			for {
				if ctx.Err() != nil {
					return
				}
				if spec.duration > 0 {
					if !time.Now().Before(deadline) {
						return
					}
				} else if s.i >= myOps {
					return
				}
				ordinal, readOrdinal := s.i, s.reads
				o := s.next()
				buf = s.render(buf[:0], o)
				t0 := time.Now()
				status, err := send(ctx, hc, spec.url+o.path, buf, &rbuf)
				lat := float64(time.Since(t0)) / float64(time.Millisecond)
				out.attempted++
				if completed.Add(1) == int64(spec.rssAtOps) {
					// A failed read leaves 0, and the caller falls back to
					// the end of the phase.
					out.rssMB, _ = peakRSSMB(spec.pids)
				}
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(rbuf.Bytes()))
				}
				if err == nil && spec.in.w.batch && o.kind == opQuery {
					err = batchDone(rbuf.Bytes(), o.items)
				}
				if err != nil {
					out.failed++
					if len(out.errors) < 3 {
						out.errors = append(out.errors, fmt.Sprintf("client %d op %d %s: %v", c, ordinal, o.path, err))
					}
					continue
				}
				out.respBytes += int64(rbuf.Len())
				switch o.kind {
				case opAdd:
					out.addMS = append(out.addMS, lat)
					out.live[o.source] = true
				case opRemove:
					out.live[o.source] = false
				default:
					out.items += o.items
					out.readMS = append(out.readMS, lat)
					if spec.keepAll || readOrdinal < sampleFirst || readOrdinal%sampleEvery == 0 {
						out.kept = append(out.kept, kept{op: o, client: c, ordinal: ordinal, latMS: lat,
							body: append([]byte(nil), rbuf.Bytes()...)})
					}
				}
			}
		}(c)
	}
	wg.Wait()

	res := &phaseResult{wall: time.Since(start), live: make(map[int]bool)}
	cpu1, err := cpuSeconds(spec.pids)
	if err != nil {
		return nil, err
	}
	for i := range cpu1 {
		res.cpuByPID = append(res.cpuByPID, cpu1[i]-cpu0[i])
		res.serverCPU += cpu1[i] - cpu0[i]
	}
	res.clientCPU = selfCPUSeconds() - self0
	for c := range outs {
		o := &outs[c]
		res.attempted += o.attempted
		res.failed += o.failed
		res.items += o.items
		res.readMS = append(res.readMS, o.readMS...)
		res.addMS = append(res.addMS, o.addMS...)
		res.respBytes += o.respBytes
		res.rssMB += o.rssMB // set by at most one client
		res.kept = append(res.kept, o.kept...)
		res.errors = append(res.errors, o.errors...)
		for src, alive := range o.live {
			res.live[src] = alive
		}
	}
	if ctx.Err() != nil {
		// The whole phase counts as failed: its numbers describe a run
		// that did not finish.
		res.failed = res.attempted
		res.errors = append(res.errors, fmt.Sprintf("phase aborted after %v (budget %v): %v", res.wall.Round(time.Millisecond), spec.budget, ctx.Err()))
	}
	return res, nil
}

// sendAll issues ops one after another on one connection and fails on
// the first that is not acknowledged with 200; it runs the preloads and
// the fixed-length write leg.
func sendAll(ctx context.Context, url string, s *stream, ops []op) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	var buf []byte
	var rbuf bytes.Buffer
	for _, o := range ops {
		buf = s.render(buf[:0], o)
		status, err := send(ctx, hc, url+o.path, buf, &rbuf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(rbuf.Bytes()))
		}
		if err != nil {
			return fmt.Errorf("%s source %d: %w", o.path, o.source, err)
		}
	}
	return nil
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples: the smallest value with at least p% of the samples at or below
// it. It returns 0 for an empty slice and leaves samples in their order.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// samplesBeyond is how many samples lie strictly above the nearest-rank
// p-th percentile position; a percentile is only trusted with ten or more.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

func median(samples []float64) float64 { return percentile(samples, 50) }
