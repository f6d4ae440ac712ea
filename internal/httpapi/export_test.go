package httpapi

import (
	"fmt"
	"net/url"
	"strconv"
)

// Test-only accessors.

// TrackedCount reports how many transactions the server currently retains.
func (s *Server) TrackedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.txns)
}

// SetMaxTracked overrides the retention cap.
func (s *Server) SetMaxTracked(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > 0 {
		s.maxTxn = n
	}
}

// Traces fetches recent completed traces. abortedOnly/slowOnly narrow the
// result; limit <= 0 uses the server default.
func (c *Client) Traces(abortedOnly, slowOnly bool, limit int) ([]TraceResponse, error) {
	q := url.Values{}
	if abortedOnly {
		q.Set("aborted", "1")
	}
	if slowOnly {
		q.Set("slow", "1")
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	u := c.Base + "/v1/traces"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	resp, err := c.httpc().Get(u)
	if err != nil {
		return nil, fmt.Errorf("httpapi: traces: %w", err)
	}
	var out TracesResponse
	if err := decode(resp, &out); err != nil {
		return nil, err
	}
	return out.Traces, nil
}

// Wait blocks server-side until the transaction's final callback has run.
func (c *Client) Wait(id string) (Status, error) {
	return c.status(id, true)
}
