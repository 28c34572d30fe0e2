package queryfront

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// ErrOverloaded is wrapped into errors for queries the frontend shed at
// admission (queue full). Callers can back off and retry; the shed is
// counted in FrontStats.
var ErrOverloaded = errors.New("queryfront: overloaded")

// Client is a query-frontend client: one connection, calls serialized.
// For concurrent queries, open one Client per caller goroutine — the
// frontend's session pool provides the server-side concurrency. A Client
// redials transparently after a broken connection.
type Client struct {
	// CallTimeout bounds one call's write+read on the wire (default 30s;
	// it should exceed the server's QueryTimeout so deadline verdicts
	// arrive in-band instead of as client-side timeouts).
	CallTimeout time.Duration
	// MaxFrame bounds response frames (default the transport default).
	MaxFrame int
	// ID names the client on the wire (default "snp-query").
	ID string

	addr string

	mu    sync.Mutex
	conn  net.Conn
	reqID uint64
}

// Dial connects to a frontend at addr. The initial connection is eager so
// a bad address fails here, not on the first query.
func Dial(addr string) (*Client, error) {
	c := &Client{
		CallTimeout: 30 * time.Second,
		MaxFrame:    transport.DefaultMaxFrame,
		ID:          "snp-query",
		addr:        addr,
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return c, nil
}

// Close closes the connection. The client is unusable afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addr = ""
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Explain submits one provenance macroquery and returns the explanation.
func (c *Client) Explain(req ExplainRequest) (*ExplainResult, error) {
	res := new(ExplainResult)
	if err := c.call(FrameExplainReq, req.MarshalWire, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Audit audits the named targets (the whole deployment when none) and
// returns the verdict tiers.
func (c *Client) Audit(targets ...types.NodeID) (*AuditResult, error) {
	res := new(AuditResult)
	if err := c.call(FrameAuditReq, AuditRequest{Targets: targets}.MarshalWire, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Stats fetches the frontend's counter snapshot.
func (c *Client) Stats() (*FrontStats, error) {
	res := new(FrontStats)
	if err := c.call(FrameStatsReq, nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

// call performs one request/response exchange, decoding the answer into
// res. Transport failures close the connection (the next call redials);
// frontend-reported errors are returned as-is, with sheds wrapped in
// ErrOverloaded.
func (c *Client) call(reqKind byte, body func(*wire.Writer), res wire.Unmarshaler) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		if c.addr == "" {
			return errors.New("queryfront: client closed")
		}
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return err
		}
		c.conn = conn
	}
	c.reqID++
	err := transport.Exchange(c.conn, c.CallTimeout, c.MaxFrame, types.NodeID(c.ID), reqKind, c.reqID, body,
		func(r *wire.Reader) error {
			if err := res.UnmarshalWire(r); err != nil {
				return err
			}
			return r.Finish()
		})
	var refused *transport.RemoteError
	switch {
	case errors.As(err, &refused):
		if strings.HasPrefix(refused.Msg, "overloaded:") {
			return fmt.Errorf("%w: %s", ErrOverloaded, refused.Msg)
		}
		return fmt.Errorf("queryfront: %s", refused.Msg)
	case err != nil:
		c.conn.Close()
		c.conn = nil
	}
	return err
}
