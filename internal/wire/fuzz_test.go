package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
)

// encodeMessage returns m's whole frame payload in the given codec, blob
// included — what a reader hands to decodeMessage.
func encodeMessage(m *Message, codec string) ([]byte, error) {
	head, err := encodeFrame(m, codec)
	if err != nil {
		return nil, err
	}
	return append(head[4:], m.Blob...), nil
}

// fuzzSeedMessages covers every field combination the two codecs carry.
func fuzzSeedMessages() []*Message {
	return []*Message{
		{Kind: "req", Method: "echo", ClientID: "c1", Seq: 1},
		{Kind: "req", Method: "gram.batch-submit", ClientID: "c2", Seq: 1 << 40,
			Session: "abcdef0123456789", Body: json.RawMessage(`{"entries":[{"a":1},{"a":2}]}`)},
		{Kind: "resp", ClientID: "c3", Seq: 7, Error: "auth: unknown or expired session", Fault: "AuthExpired"},
		{Kind: "resp", ClientID: "c4", Seq: 0, Body: json.RawMessage(`{}`)},
		// Blob frames: empty (decodes as none), one byte, one staging chunk,
		// and a blob with no body beside it.
		{Kind: "req", Method: "gass.write", ClientID: "c5", Seq: 2, Body: json.RawMessage(`{"path":"p"}`), Blob: []byte{}},
		{Kind: "req", Method: "gass.append", ClientID: "c6", Seq: 3, Body: json.RawMessage(`{"path":"p"}`), Blob: []byte{0xB1}},
		{Kind: "req", Method: "gram.stage-chunk", ClientID: "c7", Seq: 4, Session: "abcdef0123456789",
			Body: json.RawMessage(`{"hash":"h","offset":65536}`), Blob: bytes.Repeat([]byte{0x00, 0xFF, '{', '"'}, 16<<10)},
		{Kind: "resp", ClientID: "c8", Seq: 5, Blob: []byte("gass.read bytes")},
	}
}

// FuzzDecodeMessage asserts the frame decoder never panics: arbitrary
// bytes either decode to a message or return an error. Both codecs share
// the entry point (binary frames self-identify by the leading byte).
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		for _, codec := range []string{CodecJSON, CodecBinary} {
			if data, err := encodeMessage(m, codec); err == nil {
				f.Add(data)
				// Truncations and corruptions of valid frames are the
				// interesting seeds (for a blob frame the first cuts the
				// blob short, the second makes its length overrun the frame).
				f.Add(data[:len(data)/2])
				f.Add(data[:len(data)-1])
				if len(data) > 4 {
					mut := append([]byte(nil), data...)
					mut[3] ^= 0xFF
					f.Add(mut)
				}
			}
		}
	}
	f.Add([]byte{binaryMagic})
	f.Add([]byte{binaryMagic, binaryVersion})
	f.Add([]byte{binaryMagic, binaryVersion, binKindReq, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMessage(data)
		if err == nil && m == nil {
			t.Fatal("nil message with nil error")
		}
		if err == nil && m.Kind != "req" && m.Kind != "resp" && m.Kind != "" {
			// JSON tolerates arbitrary kinds; binary must not invent one.
			if len(data) > 0 && data[0] == binaryMagic {
				t.Fatalf("binary decode produced kind %q", m.Kind)
			}
		}
	})
}

// Every message must survive encode→decode unchanged in both codecs.
func TestCodecRoundTrip(t *testing.T) {
	for _, codec := range []string{CodecJSON, CodecBinary} {
		for _, in := range fuzzSeedMessages() {
			data, err := encodeMessage(in, codec)
			if err != nil {
				t.Fatalf("%s encode: %v", codec, err)
			}
			out, err := decodeMessage(data)
			if err != nil {
				t.Fatalf("%s decode: %v", codec, err)
			}
			if out.Kind != in.Kind || out.Method != in.Method || out.ClientID != in.ClientID ||
				out.Seq != in.Seq || out.Session != in.Session || out.Error != in.Error ||
				out.Fault != in.Fault || !bytes.Equal(out.Body, in.Body) || !bytes.Equal(out.Blob, in.Blob) {
				t.Fatalf("%s round trip:\n in  %+v\n out %+v", codec, in, out)
			}
			if len(in.Blob) > 0 && data[0] != binaryMagic {
				t.Fatalf("%s: a frame with a blob was not written binary", codec)
			}
			if len(in.Blob) == 0 && codec == CodecJSON && data[0] != '{' {
				t.Fatal("a blob-less frame under the JSON codec was not written as JSON")
			}
		}
	}
}

// Every proper prefix of a valid binary frame must decode to an error,
// never a panic and never a silently short message — wherever the cut
// falls, the blob included.
func TestBinaryDecodeTruncations(t *testing.T) {
	for _, m := range []*Message{fuzzSeedMessages()[1], fuzzSeedMessages()[5],
		{Kind: "req", Method: "m", Body: json.RawMessage(`{}`), Blob: bytes.Repeat([]byte("blob"), 64)}} {
		data, err := encodeMessage(m, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n < len(data); n++ {
			if _, err := decodeMessage(data[:n]); err == nil {
				t.Fatalf("truncation at %d/%d decoded cleanly", n, len(data))
			}
		}
		// Trailing garbage must be rejected too (a frame is exactly one message).
		if _, err := decodeMessage(append(append([]byte(nil), data...), 0x00)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	}
	// A blob length that points past the end of the frame is a truncation,
	// not a read beyond the buffer.
	head, err := encodeBinary(&Message{Kind: "req", Method: "m"})
	if err != nil {
		t.Fatal(err)
	}
	overrun := append(binary.AppendUvarint(head[4:len(head)-1], 1<<40), "short"...)
	if _, err := decodeMessage(overrun); err == nil {
		t.Fatal("blob length past the frame end accepted")
	}
}

// The decoded blob is a window onto the frame buffer, not a copy.
func TestDecodedBlobAliasesFrame(t *testing.T) {
	data, err := encodeMessage(&Message{Kind: "req", Method: "m", Blob: []byte("payload")}, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeMessage(data)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] = 'D'
	if string(m.Blob) != "payloaD" {
		t.Fatalf("blob = %q: decoded into its own copy", m.Blob)
	}
}

// An oversized encoded frame must be refused at write time, not sent —
// whether the body or the blob carries it over MaxFrame.
func TestWriteFrameCodecOversized(t *testing.T) {
	body := &Message{Kind: "req", Method: "m",
		Body: json.RawMessage(`"` + string(bytes.Repeat([]byte("a"), MaxFrame)) + `"`)}
	blob := &Message{Kind: "req", Method: "m", Body: json.RawMessage(`{}`), Blob: make([]byte, MaxFrame)}
	for _, big := range []*Message{body, blob} {
		for _, codec := range []string{CodecJSON, CodecBinary} {
			var buf bytes.Buffer
			if err := writeFrameCodec(&buf, big, codec); err == nil {
				t.Fatalf("oversized %s frame written", codec)
			}
			if buf.Len() > 0 {
				t.Fatal("partial oversized frame leaked to the wire")
			}
		}
	}
	// Right at the bound the blob frame goes out, header and blob gathered.
	fits := &Message{Kind: "req", Method: "m", Blob: make([]byte, MaxFrame-64)}
	var buf bytes.Buffer
	if err := writeFrameCodec(&buf, fits, CodecJSON); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || len(got.Blob) != len(fits.Blob) {
		t.Fatalf("frame at the bound: blob %d bytes, err %v", len(got.Blob), err)
	}
}

// The reader must reject an announced length beyond MaxFrame without
// allocating it.
func TestReadFrameRejectsHugeLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrame+1))
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized announced length accepted")
	}
}
