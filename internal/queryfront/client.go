package queryfront

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// ErrOverloaded is wrapped into errors for queries the frontend shed at
// admission (queue full). Callers can back off and retry; the shed is
// counted in FrontStats.
var ErrOverloaded = errors.New("queryfront: overloaded")

// Client is a query-frontend client: a transport.Caller with one target and
// no retries, naming itself "snp-query" on the wire. Calls serialize on its
// one connection, so for concurrent queries open one Client per caller
// goroutine — the frontend's session pool provides the server-side
// concurrency. A call waits up to 30s for its answer (more than the server's
// QueryTimeout, so deadline verdicts arrive in-band instead of as client-side
// timeouts); a broken connection fails the call and the next one redials.
type Client struct {
	caller *transport.Caller
}

// Dial connects to a frontend at addr. The initial connection is eager so
// a bad address fails here, not on the first query.
func Dial(addr string) (*Client, error) {
	caller := transport.NewCaller("snp-query", transport.DefaultMaxFrame, transport.Backoff{}, 0,
		func(types.NodeID) (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) })
	caller.CallTimeout = 30 * time.Second
	if err := caller.Connect(frontID); err != nil {
		return nil, err
	}
	return &Client{caller: caller}, nil
}

// Close fails a call in flight and closes the connection. The client is
// unusable afterwards: calls return transport.ErrClosed.
func (c *Client) Close() { c.caller.Close() }

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

// call performs one exchange, decoding the answer into res. Errors the
// frontend reported in-band lose the transport's prefix, with sheds wrapped
// in ErrOverloaded.
func (c *Client) call(kind byte, body func(*wire.Writer), res wire.Unmarshaler) error {
	err := c.caller.Call(frontID, kind, body, func(r *wire.Reader) { r.Value(res) })
	var refused *transport.RemoteError
	if errors.As(err, &refused) {
		if strings.HasPrefix(refused.Msg, "overloaded:") {
			return fmt.Errorf("%w: %s", ErrOverloaded, refused.Msg)
		}
		return fmt.Errorf("queryfront: %s", refused.Msg)
	}
	return err
}
