package httpapi

import (
	"bytes"
	"encoding/json"
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

// NetCut severs (cut=true) or heals the gateway node's link to a region.
func (c *Client) NetCut(region string, cut bool) error {
	body, _ := json.Marshal(NetCutRequest{Region: region, Cut: cut})
	resp, err := c.httpc().Post(c.Base+"/v1/net/cut", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("httpapi: net cut: %w", err)
	}
	return decode(resp, nil)
}

// NetListener drops (drop=true) or restores the gateway node's transport
// listener.
func (c *Client) NetListener(drop bool) error {
	body, _ := json.Marshal(NetListenerRequest{Drop: drop})
	resp, err := c.httpc().Post(c.Base+"/v1/net/listener", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("httpapi: net listener: %w", err)
	}
	return decode(resp, nil)
}

// NetLease fetches the gateway node's view of every keyspace lease (realnet
// deployments with -leases; Enabled is false otherwise).
func (c *Client) NetLease() (NetLeaseResponse, error) {
	resp, err := c.httpc().Get(c.Base + "/v1/net/lease")
	if err != nil {
		return NetLeaseResponse{}, fmt.Errorf("httpapi: net lease: %w", err)
	}
	var out NetLeaseResponse
	if err := decode(resp, &out); err != nil {
		return NetLeaseResponse{}, err
	}
	return out, nil
}
