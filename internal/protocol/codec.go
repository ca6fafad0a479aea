package protocol

import (
	"compress/gzip"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"strings"
	"sync"
)

// Content types understood by the v1 wire protocol.
const (
	ContentTypeGobGzip = "application/x-fleet-gob+gzip"
	ContentTypeJSON    = "application/json"
)

// Codec serializes protocol messages for one wire representation. Codecs
// are stateless and safe for concurrent use.
type Codec interface {
	// ContentType is the MIME type announced on the wire.
	ContentType() string
	// Encode writes v to w.
	Encode(w io.Writer, v interface{}) error
	// Decode reads a value from r into v (a pointer).
	Decode(r io.Reader, v interface{}) error
}

// Built-in codecs. GobGzip is the Go analogue of the paper's Kryo+Gzip
// streams; JSON trades size for interoperability and debuggability (curl,
// dashboards, non-Go workers).
var (
	GobGzip Codec = gobGzipCodec{}
	JSON    Codec = jsonCodec{}
)

// Default is what an unset codec means everywhere: a client with no Codec,
// an empty or wildcard Content-Type/Accept, a stream session before its
// hello, the "" codec name. Changing the default wire format is this line.
var Default = GobGzip

// CodecByName maps a -codec flag or scenario knob onto its codec; the empty
// name is Default.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "":
		return Default, nil
	case "gob":
		return GobGzip, nil
	case "json":
		return JSON, nil
	case "flat":
		return Flat, nil
	}
	return nil, fmt.Errorf("unknown codec %q (known: gob, json, flat)", name)
}

type gobGzipCodec struct{}

func (gobGzipCodec) ContentType() string { return ContentTypeGobGzip }

// The deflate state behind a gzip.Writer is ~800 KB and costs more to
// allocate than a small message costs to compress, so writers and readers
// are pooled and Reset per message. Reset restores exactly the state a
// fresh NewWriter/NewReader starts in — output bytes and decode behaviour
// do not depend on what the pooled value processed before, errors included.
// A pooled value keeps its last stream referenced until its next use.
var (
	gzipWriters = sync.Pool{New: func() interface{} { return gzip.NewWriter(nil) }}
	gzipReaders = sync.Pool{New: func() interface{} { return new(gzip.Reader) }}
)

func (gobGzipCodec) Encode(w io.Writer, v interface{}) error {
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(w)
	if err := gob.NewEncoder(zw).Encode(v); err != nil {
		return fmt.Errorf("protocol: encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("protocol: gzip close: %w", err)
	}
	return nil
}

// MaxDecodedBytes bounds how many bytes a single gob+gzip message may
// decompress to. A wire-size cap alone does not stop a gzip bomb — a ~1MB
// body can inflate a thousandfold — so the limit is enforced on the
// decompressed stream. Deployments shipping models larger than this can
// raise it.
var MaxDecodedBytes int64 = 256 << 20

func (gobGzipCodec) Decode(r io.Reader, v interface{}) error {
	zr := gzipReaders.Get().(*gzip.Reader)
	defer gzipReaders.Put(zr)
	if err := zr.Reset(r); err != nil {
		return fmt.Errorf("protocol: gzip open: %w", err)
	}
	if err := gob.NewDecoder(&limitedReader{r: zr, n: MaxDecodedBytes}).Decode(v); err != nil {
		var pe *Error
		if errors.As(err, &pe) {
			return pe
		}
		return fmt.Errorf("protocol: decode: %w", err)
	}
	return nil
}

// limitedReader fails with a structured payload_too_large error once n
// decompressed bytes have been read, unlike io.LimitReader's silent EOF.
type limitedReader struct {
	r io.Reader
	n int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, Errorf(CodePayloadTooLarge, "decoded stream exceeds %d bytes", MaxDecodedBytes)
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

type jsonCodec struct{}

func (jsonCodec) ContentType() string { return ContentTypeJSON }

func (jsonCodec) Encode(w io.Writer, v interface{}) error {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("protocol: json encode: %w", err)
	}
	return nil
}

func (jsonCodec) Decode(r io.Reader, v interface{}) error {
	if err := json.NewDecoder(r).Decode(v); err != nil {
		return fmt.Errorf("protocol: json decode: %w", err)
	}
	return nil
}

// CodecForContentType negotiates the codec for a Content-Type (or Accept)
// header value. The empty string and wildcard accepts select Default;
// unknown types return a CodeUnsupportedMedia error.
func CodecForContentType(contentType string) (Codec, error) {
	ct := strings.TrimSpace(contentType)
	if ct == "" {
		return Default, nil
	}
	// Accept headers may list several types; the first supported one wins.
	for _, part := range strings.Split(ct, ",") {
		media, _, err := mime.ParseMediaType(part)
		if err != nil {
			continue
		}
		switch media {
		case "*/*", "application/*":
			return Default, nil
		case ContentTypeGobGzip:
			return GobGzip, nil
		case ContentTypeJSON:
			return JSON, nil
		case ContentTypeFlat:
			return Flat, nil
		}
	}
	return nil, Errorf(CodeUnsupportedMedia, "unsupported content type %q", contentType)
}
