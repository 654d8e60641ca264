package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/gsi"
)

type echoReq struct {
	Text string `json:"text"`
}

type echoResp struct {
	Text string `json:"text"`
	N    int    `json:"n"`
}

func newEchoServer(t *testing.T, cfg ServerConfig) (*Server, *atomic.Int64) {
	t.Helper()
	var count atomic.Int64
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Handle("echo", func(peer string, body json.RawMessage) (any, error) {
		var req echoReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		n := count.Add(1)
		return echoResp{Text: req.Text, N: int(n)}, nil
	})
	s.Handle("fail", func(string, json.RawMessage) (any, error) {
		return nil, errors.New("boom")
	})
	s.Handle("whoami", func(peer string, _ json.RawMessage) (any, error) {
		return echoResp{Text: peer}, nil
	})
	t.Cleanup(func() { s.Close() })
	return s, &count
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{ClientID: "c", Seq: 7, Kind: "req", Method: "m", Body: json.RawMessage(`{"a":1}`)}
	if err := writeFrameCodec(&buf, in, CodecJSON); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != 7 || out.Method != "m" || string(out.Body) != `{"a":1}` {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestReadFrameOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestBasicCall(t *testing.T) {
	s, _ := newEchoServer(t, ServerConfig{Name: "test"})
	c := Dial(s.Addr(), ClientConfig{ServerName: "test"})
	defer c.Close()
	var resp echoResp
	if err := c.Call("echo", echoReq{Text: "hi"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "hi" {
		t.Fatalf("echo = %q", resp.Text)
	}
}

func TestRemoteError(t *testing.T) {
	s, _ := newEchoServer(t, ServerConfig{Name: "test"})
	c := Dial(s.Addr(), ClientConfig{ServerName: "test"})
	defer c.Close()
	err := c.Call("fail", echoReq{}, nil)
	if err == nil || !IsRemote(err) {
		t.Fatalf("want remote error, got %v", err)
	}
	err = c.Call("nosuch", echoReq{}, nil)
	if err == nil || !IsRemote(err) {
		t.Fatalf("unknown method: want remote error, got %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	s, count := newEchoServer(t, ServerConfig{Name: "test"})
	c := Dial(s.Addr(), ClientConfig{ServerName: "test"})
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp echoResp
			if err := c.Call("echo", echoReq{Text: fmt.Sprint(i)}, &resp); err != nil {
				errs <- err
				return
			}
			if resp.Text != fmt.Sprint(i) {
				errs <- fmt.Errorf("cross-talk: sent %d got %q", i, resp.Text)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if count.Load() != 50 {
		t.Fatalf("server processed %d, want 50", count.Load())
	}
	_ = s
}

func TestRetryAfterDroppedResponseIsIdempotent(t *testing.T) {
	faults := &Faults{}
	s, count := newEchoServer(t, ServerConfig{Name: "test", Faults: faults})
	var drops atomic.Int64
	faults.Set(nil, func(method string) bool {
		// Lose the first two replies.
		return method == "echo" && drops.Add(1) <= 2
	})
	c := Dial(s.Addr(), ClientConfig{
		ServerName: "test", Timeout: 150 * time.Millisecond, Retries: 5, RetryBackoff: 10 * time.Millisecond,
	})
	defer c.Close()
	var resp echoResp
	if err := c.Call("echo", echoReq{Text: "once"}, &resp); err != nil {
		t.Fatal(err)
	}
	// The handler must have executed exactly once even though the client
	// sent the request three times.
	if count.Load() != 1 {
		t.Fatalf("handler ran %d times, want exactly once", count.Load())
	}
	if resp.N != 1 {
		t.Fatalf("resp.N = %d, want 1 (cached reply)", resp.N)
	}
}

func TestRetryAfterDroppedRequest(t *testing.T) {
	faults := &Faults{}
	s, count := newEchoServer(t, ServerConfig{Name: "test", Faults: faults})
	var drops atomic.Int64
	faults.Set(func(method string) bool {
		return method == "echo" && drops.Add(1) <= 2
	}, nil)
	c := Dial(s.Addr(), ClientConfig{
		ServerName: "test", Timeout: 150 * time.Millisecond, Retries: 5, RetryBackoff: 10 * time.Millisecond,
	})
	defer c.Close()
	var resp echoResp
	if err := c.Call("echo", echoReq{Text: "x"}, &resp); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", count.Load())
	}
}

func TestTimeoutWhenAllResponsesLost(t *testing.T) {
	faults := &Faults{}
	s, count := newEchoServer(t, ServerConfig{Name: "test", Faults: faults})
	faults.Set(nil, func(string) bool { return true })
	c := Dial(s.Addr(), ClientConfig{
		ServerName: "test", Timeout: 50 * time.Millisecond, Retries: 2, RetryBackoff: 5 * time.Millisecond,
	})
	defer c.Close()
	err := c.Call("echo", echoReq{Text: "x"}, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	// Work happened exactly once despite three sends — the cache absorbed
	// the retries.
	if count.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", count.Load())
	}
}

func TestPauseResume(t *testing.T) {
	s, _ := newEchoServer(t, ServerConfig{Name: "test"})
	c := Dial(s.Addr(), ClientConfig{
		ServerName: "test", Timeout: 100 * time.Millisecond, Retries: 0,
	})
	defer c.Close()
	if err := c.Call("echo", echoReq{Text: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	s.Pause()
	if err := c.Call("echo", echoReq{Text: "b"}, nil); err == nil {
		t.Fatal("call during partition succeeded")
	}
	s.Resume()
	// Retry with a fresh client call; connection is redialed.
	var resp echoResp
	retry := Dial(s.Addr(), ClientConfig{ServerName: "test", Timeout: 500 * time.Millisecond, Retries: 3})
	defer retry.Close()
	if err := retry.Call("echo", echoReq{Text: "c"}, &resp); err != nil {
		t.Fatalf("call after Resume failed: %v", err)
	}
}

func TestServerCloseSeversClients(t *testing.T) {
	s, _ := newEchoServer(t, ServerConfig{Name: "test"})
	c := Dial(s.Addr(), ClientConfig{ServerName: "test", Timeout: 100 * time.Millisecond, Retries: 0})
	defer c.Close()
	if err := c.Call("echo", echoReq{Text: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := c.Call("echo", echoReq{Text: "b"}, nil); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

func TestAuthRequired(t *testing.T) {
	ca, err := gsi.NewCA("/O=Grid/CN=CA", time.Now(), 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newEchoServer(t, ServerConfig{Name: "svc", Anchor: ca.Certificate()})

	// Unauthenticated client is rejected.
	anon := Dial(s.Addr(), ClientConfig{ServerName: "svc", Timeout: 200 * time.Millisecond, Retries: 0})
	defer anon.Close()
	if err := anon.Call("echo", echoReq{Text: "x"}, nil); err == nil || !IsRemote(err) {
		t.Fatalf("anonymous call: want auth error, got %v", err)
	}

	// Authenticated client passes and the handler sees the subject.
	user, _ := ca.IssueUser("/O=Grid/CN=jfrey", time.Now(), time.Hour)
	proxy, _ := gsi.NewProxy(user, time.Now(), 30*time.Minute)
	authed := Dial(s.Addr(), ClientConfig{ServerName: "svc", Credential: proxy})
	defer authed.Close()
	var who echoResp
	if err := authed.Call("whoami", struct{}{}, &who); err != nil {
		t.Fatal(err)
	}
	if who.Text != "/O=Grid/CN=jfrey" {
		t.Fatalf("peer subject = %q", who.Text)
	}
}

func TestAuthExpiredProxyRejectedThenRefreshed(t *testing.T) {
	now := time.Now()
	ca, _ := gsi.NewCA("/O=Grid/CN=CA", now, 24*time.Hour)
	s, _ := newEchoServer(t, ServerConfig{Name: "svc", Anchor: ca.Certificate()})
	user, _ := ca.IssueUser("/O=Grid/CN=u", now.Add(-2*time.Hour), 24*time.Hour)
	expired, _ := gsi.NewProxy(user, now.Add(-2*time.Hour), time.Hour)
	c := Dial(s.Addr(), ClientConfig{ServerName: "svc", Credential: expired, Timeout: 200 * time.Millisecond, Retries: 0})
	defer c.Close()
	if err := c.Call("echo", echoReq{Text: "x"}, nil); err == nil {
		t.Fatal("expired proxy accepted")
	}
	fresh, _ := gsi.NewProxy(user, now, time.Hour)
	c.SetCredential(fresh)
	if err := c.Call("echo", echoReq{Text: "x"}, nil); err != nil {
		t.Fatalf("refreshed proxy rejected: %v", err)
	}
}

func TestWrongServerNameContextRejected(t *testing.T) {
	now := time.Now()
	ca, _ := gsi.NewCA("/O=Grid/CN=CA", now, 24*time.Hour)
	s, _ := newEchoServer(t, ServerConfig{Name: "svc-a", Anchor: ca.Certificate()})
	user, _ := ca.IssueUser("/O=Grid/CN=u", now, time.Hour)
	// Client binds tokens to "svc-b": the server must refuse them.
	c := Dial(s.Addr(), ClientConfig{ServerName: "svc-b", Credential: user, Timeout: 200 * time.Millisecond, Retries: 0})
	defer c.Close()
	if err := c.Call("echo", echoReq{Text: "x"}, nil); err == nil {
		t.Fatal("cross-service token accepted")
	}
}

func TestReplyCacheEviction(t *testing.T) {
	c := newReplyCache(2)
	k1 := cacheKey{"a", 1}
	k2 := cacheKey{"a", 2}
	k3 := cacheKey{"a", 3}
	c.put(k1, &Message{Seq: 1})
	c.put(k2, &Message{Seq: 2})
	c.put(k3, &Message{Seq: 3})
	if _, ok := c.get(k1); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.get(k3); !ok {
		t.Fatal("newest entry missing")
	}
	// Duplicate put does not double-insert.
	c.put(k3, &Message{Seq: 99})
	if m, _ := c.get(k3); m.Seq != 3 {
		t.Fatal("duplicate put overwrote cached reply")
	}
}

func TestClosedClient(t *testing.T) {
	s, _ := newEchoServer(t, ServerConfig{Name: "test"})
	c := Dial(s.Addr(), ClientConfig{ServerName: "test"})
	c.Close()
	if err := c.Call("echo", echoReq{}, nil); err == nil {
		t.Fatal("call on closed client succeeded")
	}
	_ = s
}
