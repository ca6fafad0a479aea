package protocol

import (
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"strings"
)

// ContentTypeJSON is the negotiation token of the JSON codec.
const ContentTypeJSON = "application/json"

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

// JSON trades size for interoperability and debuggability (curl,
// dashboards, non-Go workers); Flat (flat.go) is the binary codec.
var JSON Codec = jsonCodec{}

// Default is what an unset codec means everywhere: a client with no Codec,
// an empty or wildcard Content-Type/Accept, a stream session before its
// hello, the "" codec name. Changing the default wire format is this line.
var Default = Flat

// CodecByName maps a -codec flag or scenario knob onto its codec; the empty
// name is Default.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "":
		return Default, nil
	case "json":
		return JSON, nil
	case "flat":
		return Flat, nil
	}
	return nil, fmt.Errorf("unknown codec %q (known: flat, json)", name)
}

// MaxMessageBytes caps one message on every transport and in both
// directions: the HTTP endpoint reads at most this much of a request body,
// the stream transport refuses a frame whose payload is larger before
// reading any of it, and the flat decoder charges every array length a
// message declares against it before allocating the array, so an HTTP
// client decoding a response is held to the same cap and a small hostile
// header cannot demand a gigabyte allocation. WorkerID is unauthenticated
// on the wire, so without a cap one client could make a server allocate
// without bound. Generous enough for a dense JSON gradient of a
// million-parameter model; deployments with larger models can raise it
// before serving.
var MaxMessageBytes int64 = 64 << 20

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
		case ContentTypeJSON:
			return JSON, nil
		case ContentTypeFlat:
			return Flat, nil
		}
	}
	return nil, Errorf(CodeUnsupportedMedia, "unsupported content type %q", contentType)
}
