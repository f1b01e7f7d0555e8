package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// Codec names and content types. The binary content type doubles as the
// Accept value a client sends to request binary responses.
const (
	NameJSON   = "json"
	NameBinary = "binary"

	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-deltagraph-bin"
)

// ErrUnsupported reports a Go type a codec has no encoding for. Callers
// fall back to JSON (the universal codec) when they see it.
var ErrUnsupported = errors.New("wire: type not supported by codec")

// Codec turns the wire structs into bytes and back. Implementations must
// be stateless and safe for concurrent use.
type Codec interface {
	// Name is the codec's short name ("json", "binary") — what cache keys,
	// flags, and stats use.
	Name() string
	// ContentType is the MIME type written alongside encoded bodies and
	// sent as Accept to request this codec.
	ContentType() string
	// Encode serializes one wire value. The supported types are *Snapshot,
	// []Snapshot, *Neighbors, *Interval, *AppendResult, graph.EventList and
	// *ExprRequest (JSON additionally encodes anything encoding/json can).
	Encode(v any) ([]byte, error)
	// Decode deserializes data into v (a pointer to a supported type).
	Decode(data []byte, v any) error
}

// JSON is the default codec: exactly the bytes encoding/json has always
// produced for these structs, with the trailing newline json.Encoder
// appends — existing responses stay byte-identical.
type JSON struct{}

// Name implements Codec.
func (JSON) Name() string { return NameJSON }

// ContentType implements Codec.
func (JSON) ContentType() string { return ContentTypeJSON }

// Encode implements Codec.
func (JSON) Encode(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	// json.Encoder.Encode (the historical write path) terminates every body
	// with '\n'; keep that so responses remain byte-identical.
	return append(data, '\n'), nil
}

// Decode implements Codec.
func (JSON) Decode(data []byte, v any) error {
	return json.Unmarshal(data, v)
}

// Codecs returns the registered codecs, JSON first.
func Codecs() []Codec { return []Codec{JSON{}, Binary{}} }

// ByName resolves a codec by its short name; "" means JSON.
func ByName(name string) (Codec, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", NameJSON:
		return JSON{}, nil
	case NameBinary, "bin":
		return Binary{}, nil
	}
	return nil, fmt.Errorf("wire: unknown codec %q (want %s or %s)", name, NameJSON, NameBinary)
}

// Negotiate picks the response codec for an Accept header: binary only
// when the client asked for the binary content type explicitly, JSON for
// everything else (including "*/*" and absent headers) — an old client
// can never be surprised by bytes it does not understand.
func Negotiate(accept string) Codec {
	if strings.Contains(accept, ContentTypeBinary) {
		return Binary{}
	}
	return JSON{}
}

// ForContentType picks the codec a request or response body was encoded
// with from its Content-Type header; anything but the binary type is
// treated as JSON.
func ForContentType(ct string) Codec {
	if strings.HasPrefix(strings.TrimSpace(ct), ContentTypeBinary) {
		return Binary{}
	}
	return JSON{}
}
