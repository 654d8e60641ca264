package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"

	"condorg/internal/gsi"
)

// Codec names accepted by ClientConfig.Codec and offered in the wire.hello
// handshake. JSON is the debug framing every peer understands; the binary
// codec skips the per-frame JSON marshal of the envelope and is what a
// connection writes once both ends agree to it at handshake. A frame that
// carries a Blob is written binary whatever was negotiated: JSON has no
// field for raw bytes, and every reader decodes both framings.
const (
	CodecJSON   = "json"
	CodecBinary = "binary"
)

// Binary frames self-identify: the first payload byte is binaryMagic,
// which can never begin a JSON object ('{'). Readers are therefore always
// bimodal — negotiation gates only which codec a peer writes, so a frame
// from either era decodes correctly regardless of handshake state.
const (
	binaryMagic   = 0xB1
	binaryVersion = 0x01
)

const (
	binKindReq  = 0x01
	binKindResp = 0x02
)

var errTruncated = errors.New("wire: truncated binary frame")

// decodeMessage unmarshals a frame payload in whichever codec it was
// written in, keyed off the leading byte.
func decodeMessage(data []byte) (*Message, error) {
	if len(data) > 0 && data[0] == binaryMagic {
		return decodeBinary(data)
	}
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// encodeBinary returns m in the binary framing, up to and including the
// blob's length prefix, behind four zero bytes (room for the frame's length
// header). The blob's bytes follow on the wire; the caller sends them from
// where they are.
func encodeBinary(m *Message) ([]byte, error) {
	var tok []byte
	if m.Token != nil {
		var err error
		tok, err = json.Marshal(m.Token)
		if err != nil {
			return nil, err
		}
	}
	var kind byte
	switch m.Kind {
	case "req":
		kind = binKindReq
	case "resp":
		kind = binKindResp
	default:
		return nil, fmt.Errorf("wire: cannot encode kind %q", m.Kind)
	}
	buf := make([]byte, 4, 4+64+len(m.ClientID)+len(m.Method)+len(m.Session)+len(m.Error)+len(tok)+len(m.Body))
	buf = append(buf, binaryMagic, binaryVersion, kind)
	buf = binary.AppendUvarint(buf, m.Seq)
	buf = appendField(buf, []byte(m.ClientID))
	buf = appendField(buf, []byte(m.Method))
	buf = appendField(buf, []byte(m.Session))
	buf = appendField(buf, []byte(m.Error))
	buf = appendField(buf, []byte(m.Fault))
	buf = appendField(buf, tok)
	buf = appendField(buf, m.Body)
	return binary.AppendUvarint(buf, uint64(len(m.Blob))), nil
}

func appendField(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// binReader is a cursor over a binary frame payload. All reads are
// bounds-checked; a short or corrupt frame sets err and subsequent reads
// return zero values, so decodeBinary errors instead of panicking.
type binReader struct {
	data []byte
	err  error
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *binReader) field() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)) {
		r.err = errTruncated
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func decodeBinary(data []byte) (*Message, error) {
	if len(data) < 3 {
		return nil, errTruncated
	}
	if data[1] != binaryVersion {
		return nil, fmt.Errorf("wire: unknown binary frame version %d", data[1])
	}
	m := &Message{}
	switch data[2] {
	case binKindReq:
		m.Kind = "req"
	case binKindResp:
		m.Kind = "resp"
	default:
		return nil, fmt.Errorf("wire: unknown binary frame kind %d", data[2])
	}
	r := &binReader{data: data[3:]}
	m.Seq = r.uvarint()
	m.ClientID = string(r.field())
	m.Method = string(r.field())
	m.Session = string(r.field())
	m.Error = string(r.field())
	m.Fault = string(r.field())
	tok := r.field()
	body := r.field()
	blob := r.field()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after binary frame", len(r.data))
	}
	if len(tok) > 0 {
		m.Token = new(gsi.AuthToken)
		if err := json.Unmarshal(tok, m.Token); err != nil {
			return nil, fmt.Errorf("wire: bad token in binary frame: %w", err)
		}
	}
	if len(body) > 0 {
		m.Body = json.RawMessage(body)
	}
	if len(blob) > 0 {
		m.Blob = blob // a sub-slice of the frame buffer, never a copy
	}
	return m, nil
}

// encodeFrame returns m's 4-byte length header and its payload in one
// buffer — all of the frame but the blob, which goes out after it unchanged.
func encodeFrame(m *Message, codec string) ([]byte, error) {
	var head []byte
	var err error
	if codec == CodecBinary || len(m.Blob) > 0 {
		head, err = encodeBinary(m)
	} else if head, err = json.Marshal(m); err == nil {
		head = append(make([]byte, 4, 4+len(head)), head...)
	}
	if err != nil {
		return nil, err
	}
	size := len(head) - 4 + len(m.Blob)
	if size > MaxFrame {
		return nil, fmt.Errorf("wire: frame too large: %d", size)
	}
	binary.BigEndian.PutUint32(head, uint32(size))
	return head, nil
}

// writeFrameCodec writes one framed message in the given codec: one write,
// or one gathered write of envelope and blob.
func writeFrameCodec(w io.Writer, m *Message, codec string) error {
	head, err := encodeFrame(m, codec)
	if err != nil {
		return err
	}
	if len(m.Blob) == 0 {
		_, err = w.Write(head)
	} else {
		_, err = (&net.Buffers{head, m.Blob}).WriteTo(w)
	}
	return err
}
