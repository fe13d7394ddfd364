package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/imgrn/imgrn/internal/codec"
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
	// HTTP is the underlying transport client. When nil, the client gets a
	// transport of its own (see withDefaults), whose idle connections the
	// Coordinator's Close closes. Its Timeout is left alone; per-hop
	// deadlines come from Timeout via context.
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
	own *http.Transport // the transport withDefaults made, nil if HTTP was given
}

// withDefaults fills the unset fields for a coordinator over servers
// shard servers. A
// transport of its own keeps idle connections for the legs' bursts: every
// request puts a leg on each global shard and a server hosts several, so
// the legs in flight to one server are its hosted shards times the
// requests in flight, which the coordinator does not bound. An idle
// connection costs a descriptor until IdleConnTimeout, a connection closed
// for want of an idle slot costs the next leg a dial; so instead of
// http.DefaultTransport's two per host, each server gets an equal share of
// the idle connections the transport keeps in all.
func (c *Client) withDefaults(servers int) {
	if c.HTTP == nil {
		c.own = http.DefaultTransport.(*http.Transport).Clone()
		c.own.MaxIdleConnsPerHost = max(c.own.MaxIdleConns/servers, http.DefaultMaxIdleConnsPerHost)
		c.HTTP = &http.Client{Transport: c.own}
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
	// Not a pooled buffer: the transport may still be sending the body
	// when the response has been read.
	body, err := codec.Marshal(nil, req, AppendBatchExecRequest)
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
	fr := newFrameReader(resp.Body)
	defer fr.release()
	for {
		line, err := fr.next()
		if err != nil {
			return errTransient{fmt.Errorf("cluster: %s: stream: %w", url, err)}
		}
		if line == nil {
			// Stream ended without a terminal frame: the server died
			// mid-request.
			return errTransient{fmt.Errorf("cluster: %s: stream truncated before terminal frame", url)}
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var frame BatchExecFrame
		if err := codec.Unmarshal(line, &frame); err != nil {
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
}

// maxFrame bounds one NDJSON response frame.
const maxFrame = 64 << 20

var errFrameTooLong = errors.New("frame longer than 64 MiB")

// frameReader splits a response stream into lines over one pooled buffer,
// as bufio.Scanner's ScanLines does with a private one: a last line
// without its newline is still a line, and a read error ends the stream
// after the bytes read before it.
type frameReader struct {
	r          io.Reader
	bp         *[]byte
	buf        []byte // (*bp)[:cap], or a larger buffer grown from it
	start, end int    // unread bytes are buf[start:end]
	scanned    int    // buf[start:scanned] holds no newline
	err        error  // the error that ended the stream, io.EOF included
}

func newFrameReader(r io.Reader) *frameReader {
	bp := codec.GetBuf()
	return &frameReader{r: r, bp: bp, buf: (*bp)[:cap(*bp)]}
}

// next returns the next line, without its newline, aliasing the buffer
// until the next call; nil at a clean end of stream.
func (f *frameReader) next() ([]byte, error) {
	for {
		if i := bytes.IndexByte(f.buf[f.scanned:f.end], '\n'); i >= 0 {
			line := f.buf[f.start : f.scanned+i]
			f.start = f.scanned + i + 1
			f.scanned = f.start
			return line, nil
		}
		f.scanned = f.end
		if f.err != nil {
			if f.start < f.end {
				line := f.buf[f.start:f.end]
				f.start, f.scanned = f.end, f.end
				return line, nil
			}
			if f.err == io.EOF {
				return nil, nil
			}
			return nil, f.err
		}
		if f.start > 0 {
			n := copy(f.buf, f.buf[f.start:f.end])
			f.scanned -= f.start
			f.start, f.end = 0, n
		}
		if f.end == len(f.buf) {
			if len(f.buf) >= maxFrame {
				return nil, errFrameTooLong
			}
			grown := make([]byte, min(2*len(f.buf), maxFrame))
			copy(grown, f.buf[:f.end])
			f.buf = grown
		}
		var n int
		n, f.err = f.r.Read(f.buf[f.end:])
		f.end += n
	}
}

// release returns the buffer to the pool; codec.PutBuf keeps out one that
// grew past codec.MaxPooledBuffer.
func (f *frameReader) release() {
	*f.bp = f.buf[:0]
	codec.PutBuf(f.bp)
}

// Mutate sends one replicated-mutation leg to one replica. Exactly one
// attempt — mutations are not idempotent — and remote sentinel statuses
// map back to the shard-package errors so coordinator callers keep their
// errors.Is checks: 409 → ErrSourceExists, 404 → ErrSourceNotFound,
// 413 → ErrMutationTooLarge.
func (c *Client) Mutate(ctx context.Context, baseURL string, req *MutateRequest) (*MutateWireResponse, error) {
	req.Proto = ProtoVersion
	body, err := codec.Marshal(nil, req, AppendMutateRequest)
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
