package wire

import (
	"encoding/json"
	"testing"
	"time"

	"condorg/internal/gsi"
)

func benchServer(b *testing.B, anchor *gsi.Certificate) *Server {
	b.Helper()
	s, err := NewServer(ServerConfig{Name: "bench", Anchor: anchor})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	s.Handle("echo", func(_ string, body json.RawMessage) (any, error) {
		return json.RawMessage(body), nil
	})
	return s
}

func BenchmarkRPCRoundTrip(b *testing.B) {
	s := benchServer(b, nil)
	c := Dial(s.Addr(), ClientConfig{ServerName: "bench", Timeout: 5 * time.Second})
	defer c.Close()
	req := map[string]string{"k": "v"}
	var resp map[string]string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call("echo", req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCRoundTripAuthenticated(b *testing.B) {
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=CA", now, 24*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	user, _ := ca.IssueUser("/O=Grid/CN=bench", now, time.Hour)
	s := benchServer(b, ca.Certificate())
	c := Dial(s.Addr(), ClientConfig{ServerName: "bench", Credential: user, Timeout: 5 * time.Second})
	defer c.Close()
	req := map[string]string{"k": "v"}
	var resp map[string]string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call("echo", req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCConcurrent(b *testing.B) {
	s := benchServer(b, nil)
	c := Dial(s.Addr(), ClientConfig{ServerName: "bench", Timeout: 5 * time.Second})
	defer c.Close()
	b.RunParallel(func(pb *testing.PB) {
		req := map[string]int{"n": 1}
		var resp map[string]int
		for pb.Next() {
			if err := c.Call("echo", req, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBulk64K moves one 64 KiB staging chunk per call, the two ways
// the bulk verbs have carried it: as a []byte field of the JSON body
// (base64, scanned on both ends) and as the frame's raw blob.
func BenchmarkBulk64K(b *testing.B) {
	type fieldReq struct {
		Offset int64  `json:"offset"`
		Data   []byte `json:"data"`
	}
	type blobReq struct {
		Offset int64 `json:"offset"`
	}
	type ack struct {
		N int `json:"n"`
	}
	s := benchServer(b, nil)
	s.Handle("field", func(_ string, body json.RawMessage) (any, error) {
		var req fieldReq
		err := json.Unmarshal(body, &req)
		return ack{N: len(req.Data)}, err
	})
	s.HandleBlob("blob", func(_ string, body json.RawMessage, blob []byte) (any, []byte, error) {
		var req blobReq
		err := json.Unmarshal(body, &req)
		return ack{N: len(blob)}, nil, err
	})
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	for _, mode := range []string{"json-field", "blob"} {
		b.Run(mode, func(b *testing.B) {
			c := Dial(s.Addr(), ClientConfig{ServerName: "bench", Timeout: 5 * time.Second, Codec: CodecBinary})
			defer c.Close()
			b.SetBytes(int64(len(chunk)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var resp ack
				var err error
				if mode == "blob" {
					_, err = c.CallBlob("blob", blobReq{Offset: int64(i)}, chunk, &resp)
				} else {
					err = c.Call("field", fieldReq{Offset: int64(i), Data: chunk}, &resp)
				}
				if err != nil || resp.N != len(chunk) {
					b.Fatalf("n=%d err=%v", resp.N, err)
				}
			}
		})
	}
}
