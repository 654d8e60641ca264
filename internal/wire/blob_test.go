package wire

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"
)

type blobResp struct {
	N int `json:"n"` // request blob length as the handler saw it
}

// newBlobServer serves "mirror" (answers a blob with its byte-reversed
// copy) and "sink" (swallows a blob), counting handler runs.
func newBlobServer(t *testing.T, cfg ServerConfig) (*Server, *atomic.Int64) {
	t.Helper()
	s, count := newEchoServer(t, cfg)
	s.HandleBlob("mirror", func(_ string, _ json.RawMessage, blob []byte) (any, []byte, error) {
		count.Add(1)
		return blobResp{N: len(blob)}, reversed(blob), nil
	})
	s.HandleBlob("sink", func(_ string, _ json.RawMessage, blob []byte) (any, []byte, error) {
		count.Add(1)
		return blobResp{N: len(blob)}, nil, nil
	})
	return s, count
}

func testBlob(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func reversed(b []byte) []byte {
	out := make([]byte, len(b))
	for i, v := range b {
		out[len(b)-1-i] = v
	}
	return out
}

// A blob frame needs no negotiation: on a connection that never said hello
// (JSON frames, and per-message tokens under DisableSession) and on one
// whose handshake settled on JSON, the blob arrives intact in both
// directions, and blob-less frames on the same connection stay JSON.
func TestBlobNeedsNoNegotiation(t *testing.T) {
	anchor, proxy := testCA(t)
	for name, tc := range map[string]struct {
		srv ServerConfig
		cli ClientConfig
	}{
		"no-hello":          {ServerConfig{Name: "svc"}, ClientConfig{ServerName: "svc"}},
		"session-json":      {ServerConfig{Name: "svc", Anchor: anchor}, ClientConfig{ServerName: "svc", Credential: proxy, Codec: CodecJSON}},
		"disable-session":   {ServerConfig{Name: "svc", Anchor: anchor}, ClientConfig{ServerName: "svc", Credential: proxy, DisableSession: true}},
		"negotiated-binary": {ServerConfig{Name: "svc"}, ClientConfig{ServerName: "svc", Codec: CodecBinary}},
	} {
		t.Run(name, func(t *testing.T) {
			s, _ := newBlobServer(t, tc.srv)
			c := Dial(s.Addr(), tc.cli)
			defer c.Close()
			for _, size := range []int{1, 64 << 10} {
				in := testBlob(size)
				var resp blobResp
				out, err := c.CallBlob("mirror", struct{}{}, in, &resp)
				if err != nil {
					t.Fatal(err)
				}
				if resp.N != size || !bytes.Equal(out, reversed(in)) {
					t.Fatalf("%d-byte blob: handler saw %d bytes, reply blob intact = %v", size, resp.N, bytes.Equal(out, reversed(in)))
				}
			}
			// An empty blob is no blob, and a plain Call beside it still works.
			var resp blobResp
			if out, err := c.CallBlob("mirror", struct{}{}, nil, &resp); err != nil || resp.N != 0 || len(out) != 0 {
				t.Fatalf("empty blob: n=%d out=%d err=%v", resp.N, len(out), err)
			}
			var echo echoResp
			if err := c.Call("echo", echoReq{Text: "plain"}, &echo); err != nil || echo.Text != "plain" {
				t.Fatalf("plain call beside blob calls: %q, %v", echo.Text, err)
			}
			if cc := currentConn(t, c); cc.codec != "" && cc.codec != tc.cli.Codec {
				t.Fatalf("blob frames changed the connection's codec to %q", cc.codec)
			}
		})
	}
}

// A retried blob call whose first response was lost is answered from the
// reply cache with the same blob, the handler having run once — and what
// the cache holds is the response, never the request's blob.
func TestBlobReplyCachedAcrossRetry(t *testing.T) {
	faults := &Faults{}
	s, count := newBlobServer(t, ServerConfig{Name: "svc", Faults: faults})
	var drops atomic.Int64
	faults.Set(nil, func(string) bool { return drops.Add(1) == 1 })
	c := Dial(s.Addr(), ClientConfig{ServerName: "svc", Timeout: 150 * time.Millisecond, Retries: 5, RetryBackoff: 10 * time.Millisecond})
	defer c.Close()

	in := testBlob(64 << 10)
	seq := c.NextSeq()
	out, err := c.call(seq, "mirror", struct{}{}, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 1 || drops.Load() < 2 {
		t.Fatalf("handler ran %d times over %d replies, want once over a retry", count.Load(), drops.Load())
	}
	if !bytes.Equal(out, reversed(in)) {
		t.Fatal("retried call's blob differs from the first answer")
	}
	// The same sequence number again, with a different request blob: still
	// the cached answer.
	again, err := c.call(seq, "mirror", struct{}{}, []byte("other"), nil)
	if err != nil || !bytes.Equal(again, out) || count.Load() != 1 {
		t.Fatalf("repeat of seq: same blob = %v, handler runs = %d, err = %v", bytes.Equal(again, out), count.Load(), err)
	}

	if _, err := c.CallBlob("sink", struct{}{}, in, nil); err != nil {
		t.Fatal(err)
	}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	for key, m := range s.cache.m {
		if m.Kind != "resp" || (key.seq != seq && len(m.Blob) != 0) {
			t.Fatalf("reply cache entry %d holds kind %q with a %d-byte blob", key.seq, m.Kind, len(m.Blob))
		}
	}
}
