package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/imgrn/imgrn/internal/shard"
)

// Client is the coordinator's HTTP client for shard-server RPCs. Every
// hop gets its own timeout; idempotent reads (exec, info) retry transient
// failures — network errors and 502/503/504 — with exponential backoff,
// while mutations NEVER auto-retry (an add is not
// idempotent: a retry racing a slow first attempt could double-apply;
// the caller surfaces the partial-failure error instead). Streaming
// endpoints parse NDJSON frames as they arrive so accept frames reach
// the floor logic mid-query, not after.
type Client struct {
	// HTTP is the underlying transport client (a fresh http.Client when
	// nil). Its Timeout is left alone; per-hop deadlines come from
	// Timeout via context.
	HTTP *http.Client
	// Timeout bounds each RPC attempt (default 60s; streaming execs hold
	// the connection for the query's duration, so this is a query budget,
	// not a handshake budget).
	Timeout time.Duration
	// Retries is the extra attempts for idempotent reads (default 2).
	Retries int
	// Backoff is the first retry's delay, doubled per retry (default 50ms).
	Backoff time.Duration

	met *Metrics
}

func (c *Client) withDefaults() {
	if c.HTTP == nil {
		c.HTTP = &http.Client{}
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
}

// errTransient marks failures worth retrying on an idempotent RPC.
type errTransient struct{ err error }

func (e errTransient) Error() string { return e.err.Error() }
func (e errTransient) Unwrap() error { return e.err }

func transient(err error) bool {
	var t errTransient
	return errors.As(err, &t)
}

// post issues one POST attempt with the per-hop deadline and returns the
// response, classifying transport failures as transient. The caller owns
// resp.Body.
func (c *Client) post(ctx context.Context, url string, body []byte) (*http.Response, context.CancelFunc, error) {
	hopCtx, cancel := context.WithTimeout(ctx, c.Timeout)
	req, err := http.NewRequestWithContext(hopCtx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		cancel()
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, errTransient{fmt.Errorf("cluster: %s: %w", url, err)}
	}
	return resp, cancel, nil
}

// outcomeOf maps an RPC error to its metric label.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, context.DeadlineExceeded):
		return OutcomeTimeout
	default:
		return OutcomeError
	}
}

// retryIdempotent runs attempt up to 1+Retries times, backing off on
// transient failures. attempt must be safe to repeat wholesale.
func (c *Client) retryIdempotent(ctx context.Context, attempt func() error) error {
	backoff := c.Backoff
	var err error
	for try := 0; ; try++ {
		start := time.Now()
		err = attempt()
		c.met.rpc(outcomeOf(err), time.Since(start).Seconds())
		if err == nil || !transient(err) || try == c.Retries {
			return err
		}
		c.met.retry()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// statusError drains the error payload of a non-200 response and decides
// transience. Shard servers answer handled failures with the standard
// {"error": "..."} envelope.
func statusError(url string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := strings.TrimSpace(string(body))
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error != "" {
		msg = env.Error
	}
	err := fmt.Errorf("cluster: %s: HTTP %d: %s", url, resp.StatusCode, msg)
	switch resp.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout,
		http.StatusTooManyRequests: // admission-control shedding is transient by design
		return errTransient{err}
	}
	if strings.Contains(msg, "protocol version") {
		return fmt.Errorf("%w: %v", ErrProtoVersion, err)
	}
	return err
}

// ExecBatch runs one BatchExecRequest against one shard server, streaming
// accept frames into onAccept (which may be nil) and per-item frames into
// onItem as they arrive, and returns once the terminal frame lands.
// Idempotent: the executed leg is a deterministic read, so transient
// failures retry the whole request — and a retry (or a hedged duplicate)
// replays earlier frames, so the caller must keep the FIRST frame per
// (item, shard) and dedup accepts by source.
func (c *Client) ExecBatch(ctx context.Context, baseURL string, req *BatchExecRequest, onAccept func(AcceptFrame), onItem func(BatchItemFrame)) error {
	req.Proto = ProtoVersion
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.retryIdempotent(ctx, func() error {
		return c.execBatchOnce(ctx, baseURL+PathExec, body, onAccept, onItem)
	})
}

func (c *Client) execBatchOnce(ctx context.Context, url string, body []byte, onAccept func(AcceptFrame), onItem func(BatchItemFrame)) error {
	resp, cancel, err := c.post(ctx, url, body)
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(url, resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var frame BatchExecFrame
		if err := json.Unmarshal(line, &frame); err != nil {
			return errTransient{fmt.Errorf("cluster: %s: bad frame: %w", url, err)}
		}
		switch {
		case frame.Accept != nil:
			if onAccept != nil {
				onAccept(*frame.Accept)
			}
		case frame.Item != nil:
			onItem(*frame.Item)
		case frame.Done:
			return nil
		case frame.Error != "":
			// The server executed and failed: a real error, not transient.
			return fmt.Errorf("cluster: %s: %s", url, frame.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return errTransient{fmt.Errorf("cluster: %s: stream: %w", url, err)}
	}
	// Stream ended without a terminal frame: the server died mid-request.
	return errTransient{fmt.Errorf("cluster: %s: stream truncated before terminal frame", url)}
}

// Mutate sends one replicated-mutation leg to one replica. Exactly one
// attempt — mutations are not idempotent — and remote sentinel statuses
// map back to the shard-package errors so coordinator callers keep their
// errors.Is checks: 409 → ErrSourceExists, 404 → ErrSourceNotFound,
// 413 → ErrMutationTooLarge.
func (c *Client) Mutate(ctx context.Context, baseURL string, req *MutateRequest) (*MutateWireResponse, error) {
	req.Proto = ProtoVersion
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	url := baseURL + PathMutate
	start := time.Now()
	resp, cancel, err := c.post(ctx, url, body)
	if err != nil {
		c.met.rpc(outcomeOf(err), time.Since(start).Seconds())
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		c.met.rpc(OutcomeError, time.Since(start).Seconds())
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: %s: source %d: %w", url, req.Source, shard.ErrSourceExists)
	case http.StatusNotFound:
		c.met.rpc(OutcomeError, time.Since(start).Seconds())
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: %s: source %d: %w", url, req.Source, shard.ErrSourceNotFound)
	case http.StatusRequestEntityTooLarge:
		c.met.rpc(OutcomeError, time.Since(start).Seconds())
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: %s: source %d: %w", url, req.Source, shard.ErrMutationTooLarge)
	default:
		c.met.rpc(OutcomeError, time.Since(start).Seconds())
		return nil, statusError(url, resp)
	}
	var ack MutateWireResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		c.met.rpc(OutcomeError, time.Since(start).Seconds())
		return nil, fmt.Errorf("cluster: %s: bad ack: %w", url, err)
	}
	c.met.rpc(OutcomeOK, time.Since(start).Seconds())
	return &ack, nil
}

// Floor pushes a top-k floor update for a live query. Best-effort: one
// attempt, errors are the caller's to ignore (the floor is a
// performance hint; the terminal merge never depends on it).
func (c *Client) Floor(ctx context.Context, baseURL string, req *FloorRequest) error {
	req.Proto = ProtoVersion
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	url := baseURL + PathFloor
	resp, cancel, err := c.post(ctx, url, body)
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

// Info fetches one shard server's membership/health snapshot. Retries
// like any idempotent read.
func (c *Client) Info(ctx context.Context, baseURL string) (*InfoResponse, error) {
	url := baseURL + PathInfo
	var out *InfoResponse
	err := c.retryIdempotent(ctx, func() error {
		hopCtx, cancel := context.WithTimeout(ctx, c.Timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(hopCtx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return errTransient{fmt.Errorf("cluster: %s: %w", url, err)}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return statusError(url, resp)
		}
		var info InfoResponse
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			return errTransient{fmt.Errorf("cluster: %s: bad info: %w", url, err)}
		}
		if info.Proto != ProtoVersion {
			return fmt.Errorf("%w: %s speaks %d, this binary speaks %d", ErrProtoVersion, url, info.Proto, ProtoVersion)
		}
		out = &info
		return nil
	})
	return out, err
}
