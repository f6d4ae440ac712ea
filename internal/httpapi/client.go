package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"planet/internal/obs"
)

// ErrWaitTimeout reports that a transaction did not resolve within the
// caller's wait budget — the decisive outcome when the coordinator's peers
// are down and the transaction can never finish. Test with errors.Is.
var ErrWaitTimeout = errors.New("httpapi: wait timed out")

// Client talks to a Server. The zero HTTP client is fine for tests; set
// HTTP for custom transports or timeouts.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8480".
	Base string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
}

// httpc returns the effective HTTP client.
func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// decode unmarshals a JSON response, translating error envelopes.
func decode(resp *http.Response, into any) error {
	defer resp.Body.Close()
	bp := getBuf()
	defer putBuf(bp)
	body, err := readAll(io.LimitReader(resp.Body, 1<<20), (*bp)[:0])
	*bp = body
	if err != nil {
		return fmt.Errorf("httpapi: read response: %w", err)
	}
	if resp.StatusCode >= 400 {
		var eb errorBody
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("httpapi: %s: %s", resp.Status, eb.Error)
		}
		return fmt.Errorf("httpapi: %s", resp.Status)
	}
	if into == nil {
		return nil
	}
	if err := unmarshal(body, into); err != nil {
		return fmt.Errorf("httpapi: decode response: %w", err)
	}
	return nil
}

// Read fetches committed state from the gateway's local replica.
func (c *Client) Read(key string) (ReadResponse, error) {
	return c.read(key, false)
}

// QuorumRead fetches the freshest majority-read state.
func (c *Client) QuorumRead(key string) (ReadResponse, error) {
	return c.read(key, true)
}

func (c *Client) read(key string, quorum bool) (ReadResponse, error) {
	q := url.Values{"key": {key}}
	if quorum {
		q.Set("quorum", "1")
	}
	resp, err := c.httpc().Get(c.Base + "/v1/read?" + q.Encode())
	if err != nil {
		return ReadResponse{}, fmt.Errorf("httpapi: read: %w", err)
	}
	if resp.StatusCode == http.StatusNotFound {
		defer resp.Body.Close()
		return ReadResponse{Key: key, Found: false}, nil
	}
	var out ReadResponse
	if err := decode(resp, &out); err != nil {
		return ReadResponse{}, err
	}
	return out, nil
}

// Submit posts a transaction and returns its ID without waiting.
func (c *Client) Submit(req SubmitRequest) (string, error) {
	body, err := appendSubmitRequest(make([]byte, 0, 256), &req)
	if err != nil {
		return "", fmt.Errorf("httpapi: marshal: %w", err)
	}
	resp, err := c.httpc().Post(c.Base+"/v1/txn", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("httpapi: submit: %w", err)
	}
	var out SubmitResponse
	if err := decode(resp, &out); err != nil {
		return "", err
	}
	return out.Txn, nil
}

// Status fetches a transaction's current stage without blocking.
func (c *Client) Status(id string) (Status, error) {
	return c.status(id, false)
}

func (c *Client) status(id string, wait bool) (Status, error) {
	u := c.Base + "/v1/txn/" + url.PathEscape(id)
	if wait {
		u += "?wait=1"
	}
	resp, err := c.httpc().Get(u)
	if err != nil {
		return Status{}, fmt.Errorf("httpapi: status: %w", err)
	}
	var out Status
	if err := decode(resp, &out); err != nil {
		return Status{}, err
	}
	return out, nil
}

// WaitBounded blocks server-side for at most bound and reports whether the
// wait expired (the server's 504) rather than folding it into an opaque
// error: callers distinguish "not resolved yet" from "request failed".
func (c *Client) WaitBounded(id string, bound time.Duration) (st Status, timedOut bool, err error) {
	u := fmt.Sprintf("%s/v1/txn/%s?wait=1&waitms=%d", c.Base, url.PathEscape(id), waitMillis(bound))
	resp, err := c.httpc().Get(u)
	if err != nil {
		return Status{}, false, fmt.Errorf("httpapi: status: %w", err)
	}
	if resp.StatusCode == http.StatusGatewayTimeout {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return Status{}, true, nil
	}
	if err := decode(resp, &st); err != nil {
		return Status{}, false, err
	}
	return st, false, nil
}

// Stats fetches the DB-wide outcome counters as a generic map (float64
// values: the response mixes counters with the speculation-accuracy ratio).
func (c *Client) Stats() (map[string]float64, error) {
	resp, err := c.httpc().Get(c.Base + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("httpapi: stats: %w", err)
	}
	var out map[string]float64
	if err := decode(resp, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Trace fetches a transaction's recorded lifecycle events.
func (c *Client) Trace(id string) (TraceResponse, error) {
	resp, err := c.httpc().Get(c.Base + "/v1/txn/" + url.PathEscape(id) + "/trace")
	if err != nil {
		return TraceResponse{}, fmt.Errorf("httpapi: trace: %w", err)
	}
	var out TraceResponse
	if err := decode(resp, &out); err != nil {
		return TraceResponse{}, err
	}
	return out, nil
}

// Attribution fetches the per-stage latency variance attribution snapshot.
func (c *Client) Attribution() (obs.Snapshot, error) {
	resp, err := c.httpc().Get(c.Base + "/v1/attribution")
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("httpapi: attribution: %w", err)
	}
	var out obs.Snapshot
	if err := decode(resp, &out); err != nil {
		return obs.Snapshot{}, err
	}
	return out, nil
}

// Metrics fetches the Prometheus exposition text.
func (c *Client) Metrics() (string, error) {
	resp, err := c.httpc().Get(c.Base + "/v1/metrics")
	if err != nil {
		return "", fmt.Errorf("httpapi: metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return "", fmt.Errorf("httpapi: read metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("httpapi: metrics: %s", resp.Status)
	}
	return string(body), nil
}

// SubmitAndWait pacing: each request asks the server to wait up to
// submitWaitChunk; between chunks (and after transport errors) the client
// backs off from the base to the cap so a flapping gateway is not hammered.
const (
	submitWaitChunk = 10 * time.Second
	submitRetryBase = time.Millisecond
	submitRetryMax  = 50 * time.Millisecond
)

// waitBound is the server-side bound for the next wait request: what is left
// of the caller's budget, capped at chunk and — when the HTTP client has a
// Timeout of its own — at half of that, so the client never cuts off a
// request the server is still holding; the server's bound expires first and
// answers with the transaction's id.
func (c *Client) waitBound(remaining, chunk time.Duration) time.Duration {
	if t := c.httpc().Timeout / 2; t > 0 && t < chunk {
		chunk = t
	}
	if remaining > chunk {
		return chunk
	}
	return remaining
}

// waitMillis renders a wait bound as the waitms query value (at least 1).
func waitMillis(bound time.Duration) int64 {
	if ms := bound.Milliseconds(); ms > 0 {
		return ms
	}
	return 1
}

// submitWait posts a transaction with wait=1&waitms=bound. The returned
// status is final (Done) when the transaction resolved within the bound —
// the server's 200; otherwise it carries only the id of the still-running
// transaction — the server's 202.
func (c *Client) submitWait(req SubmitRequest, bound time.Duration) (Status, error) {
	body, err := appendSubmitRequest(make([]byte, 0, 256), &req)
	if err != nil {
		return Status{}, fmt.Errorf("httpapi: marshal: %w", err)
	}
	u := c.Base + "/v1/txn?wait=1&waitms=" + strconv.FormatInt(waitMillis(bound), 10)
	resp, err := c.httpc().Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		return Status{}, fmt.Errorf("httpapi: submit (outcome unknown, the transaction may be running): %w", err)
	}
	// Both bodies carry "txn"; only the 200's carries the rest.
	var st Status
	if err := decode(resp, &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// SubmitAndWait is the blocking convenience path: one request submits the
// transaction and waits server-side for its final callback, so a commit
// costs one HTTP round trip. Only when that wait expires first (a slow
// transaction, or a caller budget beyond submitWaitChunk) does it go on to
// ride bounded status waits until the transaction resolves or timeout
// passes. A transaction that can never resolve — its coordinator's peers are
// down — surfaces as an error wrapping ErrWaitTimeout (the returned status
// names the transaction) instead of polling until the caller gives up.
//
// The submitting request is never retried. If it fails in transit — the
// connection breaks while the server holds it — no id came back and the
// error leaves the outcome unknown: the transaction may be running and may
// commit, so a caller must not resubmit operations that are not idempotent.
func (c *Client) SubmitAndWait(req SubmitRequest, timeout time.Duration) (Status, error) {
	return c.submitAndWait(req, timeout, submitWaitChunk)
}

// submitAndWait is SubmitAndWait with the wait chunk as a parameter, so
// tests can force the fallback without a slow transaction.
func (c *Client) submitAndWait(req SubmitRequest, timeout, chunk time.Duration) (Status, error) {
	deadline := time.Now().Add(timeout)
	st, err := c.submitWait(req, c.waitBound(timeout, chunk))
	if err != nil || st.Done {
		return st, err
	}
	id := st.Txn
	delay := submitRetryBase
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return Status{Txn: id}, fmt.Errorf("httpapi: transaction %s not resolved within %v: %w",
				id, timeout, ErrWaitTimeout)
		}
		st, timedOut, err := c.WaitBounded(id, c.waitBound(remaining, chunk))
		if err == nil && !timedOut {
			return st, nil
		}
		// Timed out chunk or transport error: back off briefly. The client
		// waits in wall time, outside any cluster's clock.
		time.Sleep(delay)
		if delay *= 2; delay > submitRetryMax {
			delay = submitRetryMax
		}
	}
}

// NetPeers fetches the coordinator's view of its peers and the transport's
// counters (realnet deployments only).
func (c *Client) NetPeers() (NetPeersResponse, error) {
	resp, err := c.httpc().Get(c.Base + "/v1/net/peers")
	if err != nil {
		return NetPeersResponse{}, fmt.Errorf("httpapi: net peers: %w", err)
	}
	var out NetPeersResponse
	if err := decode(resp, &out); err != nil {
		return NetPeersResponse{}, err
	}
	return out, nil
}

// NetDecisions fetches every transaction verdict the gateway node's replica
// retains (the multi-process agreement audit).
func (c *Client) NetDecisions() (map[string]bool, error) {
	resp, err := c.httpc().Get(c.Base + "/v1/net/decisions")
	if err != nil {
		return nil, fmt.Errorf("httpapi: net decisions: %w", err)
	}
	var out NetDecisionsResponse
	if err := decode(resp, &out); err != nil {
		return nil, err
	}
	return out.Decisions, nil
}
