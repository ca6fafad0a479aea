package worker

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"

	"fleet/internal/protocol"
	"fleet/internal/service"
)

// Client adapts a remote FLeet server (base URL) to service.Service over
// HTTP. It speaks the versioned /v1 routes, by default with the flat
// codec; Codec switches the wire representation.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
	// Codec selects the wire representation (nil: protocol.Default).
	Codec protocol.Codec
	// Wire, when non-nil, tallies encoded payload bytes in both directions
	// (request and response bodies; HTTP header overhead is not counted).
	Wire *protocol.WireCounter
	// Tenant routes calls through the tenant-scoped /v1/t/<tenant>/ route
	// space on multi-tenant servers ("" keeps the un-tenanted routes, which
	// alias to the server's default tenant).
	Tenant string
	// Token is the bearer token minted for (tenant, worker), sent as the
	// Authorization header on every call.
	Token string
}

var _ service.Service = (*Client)(nil)

// RequestTask implements service.Service over HTTP.
func (c *Client) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	var resp protocol.TaskResponse
	if err := c.post(ctx, "/task", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// PushGradient implements service.Service over HTTP.
func (c *Client) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	var ack protocol.PushAck
	if err := c.post(ctx, "/gradient", push, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// Stats implements service.Service over HTTP.
func (c *Client) Stats(ctx context.Context) (*protocol.Stats, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+c.route("/stats"), nil)
	if err != nil {
		return nil, fmt.Errorf("worker: stats: %w", err)
	}
	codec := c.codec()
	httpReq.Header.Set("Accept", codec.ContentType())
	c.authorize(httpReq)
	resp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return nil, protocol.Errorf(protocol.CodeUnavailable, "worker: stats: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, c.readError(resp)
	}
	var stats protocol.Stats
	if err := codec.Decode(c.countBody(resp.Body), &stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

func (c *Client) post(ctx context.Context, path string, in, out interface{}) error {
	codec := c.codec()
	var buf bytes.Buffer
	if err := codec.Encode(&buf, in); err != nil {
		return err
	}
	c.Wire.AddUplink(int64(buf.Len()))
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+c.route(path), &buf)
	if err != nil {
		return fmt.Errorf("worker: POST %s: %w", path, err)
	}
	httpReq.Header.Set("Content-Type", codec.ContentType())
	httpReq.Header.Set("Accept", codec.ContentType())
	c.authorize(httpReq)
	resp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return protocol.Errorf(protocol.CodeUnavailable, "worker: POST %s: %v", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return c.readError(resp)
	}
	return codec.Decode(c.countBody(resp.Body), out)
}

// countBody wraps a response body so decoded bytes land in the downlink
// tally; a nil counter reads straight through.
func (c *Client) countBody(r io.Reader) io.Reader {
	if c.Wire == nil {
		return r
	}
	return &countingReader{r: r, wire: c.Wire}
}

type countingReader struct {
	r    io.Reader
	wire *protocol.WireCounter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.wire.AddDownlink(int64(n))
	return n, err
}

// readError reconstructs the structured error from an HTTP error reply, so
// callers observe the same *protocol.Error the server returned.
func (c *Client) readError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return protocol.ErrorFromHTTP(resp.StatusCode, resp.Header.Get("Content-Type"), body)
}

// route maps a logical path onto the versioned or tenant-scoped route
// space.
func (c *Client) route(path string) string {
	if c.Tenant != "" {
		return "/v1/t/" + c.Tenant + path
	}
	return "/v1" + path
}

// authorize attaches the bearer token when one is configured.
func (c *Client) authorize(req *http.Request) {
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
}

func (c *Client) codec() protocol.Codec {
	if c.Codec == nil {
		return protocol.Default
	}
	return c.Codec
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}
