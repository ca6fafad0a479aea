package worker

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

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
	// Wire, when non-nil, tallies encoded message bytes in both directions:
	// request bodies and 200 reply bodies (see protocol.WireCounter).
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

// post sends in and decodes the reply into out. The message is encoded into
// a pooled protocol.Segments, which keeps its large arrays by reference
// (Flat.Encode hands them over): such a body is read by the transport
// straight from in's arrays, and post returns only once the transport has
// closed it — early replies (415, 413, 401) included — so the caller may
// write them again right after. A message without a large array is copied
// into an in-memory body, as net/http sends those best (headers and body in
// one write).
func (c *Client) post(ctx context.Context, path string, in, out interface{}) error {
	codec := c.codec()
	b := bodies.Get().(*requestBody)
	defer b.finish()
	if err := codec.Encode(&b.segs, in); err != nil {
		return err
	}
	c.Wire.AddUplink(int64(b.segs.Len()))
	msg, copied := b.segs.Copied()
	var body io.Reader = &b.first
	if copied {
		body = bytes.NewReader(bytes.Clone(msg))
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+c.route(path), body)
	if err != nil {
		return fmt.Errorf("worker: POST %s: %w", path, err)
	}
	if !copied {
		b.lend(httpReq)
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

// requestBody is a pooled POST body: the message encoded into segs, lent to
// the transport (lend) and taken back once the transport is done (finish).
type requestBody struct {
	segs protocol.Segments
	// whole lists the message in order; every reader consumes a copy.
	whole [][]byte
	first bodyReader
	// open counts the readers handed to the transport and not yet closed.
	open    sync.WaitGroup
	getBody func() (io.ReadCloser, error) // reread, bound once per body
}

var bodies = sync.Pool{New: func() interface{} {
	b := new(requestBody)
	b.first.open = &b.open
	b.getBody = b.reread
	return b
}}

// lend makes the message req's body, read where it lies: req carries its
// length, and a retry on a fresh connection reads it again (reread).
func (b *requestBody) lend(req *http.Request) {
	b.whole = b.segs.Buffers(nil)
	b.first.list = append(b.first.list[:0], b.whole...)
	b.first.nb = b.first.list
	b.first.closed.Store(false)
	b.open.Add(1)
	req.ContentLength = int64(b.segs.Len())
	req.GetBody = b.getBody
}

// reread is a lent request's GetBody: the message again, through a reader
// of its own.
func (b *requestBody) reread() (io.ReadCloser, error) {
	b.open.Add(1)
	return &bodyReader{nb: slices.Clone(b.whole), open: &b.open}, nil
}

// finish waits until the transport has closed every reader it was lent,
// then returns b to the pool without a reference to the message.
func (b *requestBody) finish() {
	b.open.Wait()
	clear(b.first.list)
	b.first.list, b.first.nb, b.whole = b.first.list[:0], nil, nil
	b.segs.Reset()
	bodies.Put(b)
}

// bodyReader is one read of a lent body; Close counts it out.
type bodyReader struct {
	nb     net.Buffers
	list   [][]byte // nb's storage, kept across uses of a pooled body
	open   *sync.WaitGroup
	closed atomic.Bool
}

func (r *bodyReader) Read(p []byte) (int, error) { return r.nb.Read(p) }

func (r *bodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.open.Done()
	}
	return nil
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
