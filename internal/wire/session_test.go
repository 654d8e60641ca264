package wire

import (
	"net"
	"testing"
	"time"

	"condorg/internal/gsi"
)

func testCA(t *testing.T) (*gsi.Certificate, *gsi.Credential) {
	t.Helper()
	ca, err := gsi.NewCA("/O=Grid/CN=CA", time.Now(), 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueUser("/O=Grid/CN=jfrey", time.Now(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := gsi.NewProxy(user, time.Now(), 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return ca.Certificate(), proxy
}

// currentConn waits for the client's live connection (post-handshake).
func currentConn(t *testing.T, c *Client) *clientConn {
	t.Helper()
	c.mu.Lock()
	cc := c.cc
	c.mu.Unlock()
	if cc == nil {
		t.Fatal("no live connection")
	}
	<-cc.ready
	return cc
}

// An authenticated dial must establish a session at connect; afterwards
// requests ride the session ID alone. We prove the second part by
// white-box clearing the credential: if any later frame still needed a
// token, the anchored server would reject it.
func TestSessionEstablishedAtConnect(t *testing.T) {
	anchor, proxy := testCA(t)
	s, _ := newEchoServer(t, ServerConfig{Name: "svc", Anchor: anchor})
	c := Dial(s.Addr(), ClientConfig{ServerName: "svc", Credential: proxy})
	defer c.Close()

	var who echoResp
	if err := c.Call("whoami", struct{}{}, &who); err != nil {
		t.Fatal(err)
	}
	if who.Text != "/O=Grid/CN=jfrey" {
		t.Fatalf("peer subject = %q", who.Text)
	}
	cc := currentConn(t, c)
	if cc.session == "" {
		t.Fatal("no session established on authenticated connection")
	}

	c.mu.Lock()
	c.cfg.Credential = nil // white-box: no tokens can be signed from here on
	c.mu.Unlock()
	if err := c.Call("whoami", struct{}{}, &who); err != nil {
		t.Fatalf("session-authenticated call failed: %v", err)
	}
	if who.Text != "/O=Grid/CN=jfrey" {
		t.Fatalf("session peer subject = %q", who.Text)
	}
}

// A redial must re-handshake: sessions die with their connection.
func TestSessionRedialRehandshakes(t *testing.T) {
	anchor, proxy := testCA(t)
	s, _ := newEchoServer(t, ServerConfig{Name: "svc", Anchor: anchor})
	c := Dial(s.Addr(), ClientConfig{ServerName: "svc", Credential: proxy})
	defer c.Close()

	if err := c.Call("echo", echoReq{Text: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	cc1 := currentConn(t, c)
	first := cc1.session
	c.drop(cc1) // simulate a broken connection

	if err := c.Call("echo", echoReq{Text: "b"}, nil); err != nil {
		t.Fatalf("call after reconnect failed: %v", err)
	}
	cc2 := currentConn(t, c)
	if cc2 == cc1 {
		t.Fatal("connection not replaced")
	}
	if cc2.session == "" || cc2.session == first {
		t.Fatalf("redial reused session %q (was %q)", cc2.session, first)
	}
}

// The binary codec is negotiated by the handshake and used for both
// directions afterwards.
func TestBinaryCodecNegotiated(t *testing.T) {
	s, count := newEchoServer(t, ServerConfig{Name: "svc"})
	c := Dial(s.Addr(), ClientConfig{ServerName: "svc", Codec: CodecBinary})
	defer c.Close()

	var resp echoResp
	if err := c.Call("echo", echoReq{Text: "bin"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "bin" {
		t.Fatalf("echo = %q", resp.Text)
	}
	if cc := currentConn(t, c); cc.codec != CodecBinary {
		t.Fatalf("negotiated codec = %q, want binary", cc.codec)
	}
	// And with auth on top: session + binary on the same handshake.
	anchor, proxy := testCA(t)
	s2, _ := newEchoServer(t, ServerConfig{Name: "svc", Anchor: anchor})
	c2 := Dial(s2.Addr(), ClientConfig{ServerName: "svc", Credential: proxy, Codec: CodecBinary})
	defer c2.Close()
	if err := c2.Call("echo", echoReq{Text: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	cc2 := currentConn(t, c2)
	if cc2.codec != CodecBinary || cc2.session == "" {
		t.Fatalf("codec=%q session=%q, want binary + session", cc2.codec, cc2.session)
	}
	_ = count
}

// DisableSession preserves exact v1 behaviour: no handshake, a signed
// token on every message.
func TestDisableSessionKeepsPerMessageTokens(t *testing.T) {
	anchor, proxy := testCA(t)
	s, _ := newEchoServer(t, ServerConfig{Name: "svc", Anchor: anchor})
	c := Dial(s.Addr(), ClientConfig{ServerName: "svc", Credential: proxy, DisableSession: true})
	defer c.Close()

	var who echoResp
	if err := c.Call("whoami", struct{}{}, &who); err != nil {
		t.Fatal(err)
	}
	if who.Text != "/O=Grid/CN=jfrey" {
		t.Fatalf("peer subject = %q", who.Text)
	}
	if cc := currentConn(t, c); cc.session != "" {
		t.Fatalf("DisableSession established session %q", cc.session)
	}
}

// A stale or foreign session ID must be rejected as AuthExpired — the
// client's cue to re-handshake — and must not be reply-cached.
func TestUnknownSessionRejected(t *testing.T) {
	anchor, proxy := testCA(t)
	s, _ := newEchoServer(t, ServerConfig{Name: "svc", Anchor: anchor})
	c := Dial(s.Addr(), ClientConfig{ServerName: "svc", Credential: proxy})
	defer c.Close()
	if err := c.Call("echo", echoReq{Text: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	cc := currentConn(t, c)
	cc.wmu.Lock()
	cc.session = "forged-" + cc.session // white-box: corrupt the session ID
	cc.wmu.Unlock()
	err := c.Call("echo", echoReq{Text: "b"}, nil)
	if err == nil || !IsRemote(err) {
		t.Fatalf("forged session: want remote auth error, got %v", err)
	}
}

// Regression: a frame write blocked on a peer that never reads must not
// wedge the whole client. Close (which needs c.mu on the old code path)
// has to return promptly and fail the stuck call.
func TestBlockedWriteDoesNotWedgeClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn // never read from it: TCP buffers fill and writes block
		}
	}()

	c := Dial(ln.Addr().String(), ClientConfig{ServerName: "svc", Timeout: 30 * time.Second, Retries: -1})
	big := make([]byte, 12<<20)
	done := make(chan error, 1)
	go func() {
		done <- c.Call("echo", struct {
			Blob []byte `json:"blob"`
		}{big}, nil)
	}()

	// Wait until the writer is actually stuck in the kernel send path.
	deadline := time.After(5 * time.Second)
	for {
		c.mu.Lock()
		stuck := c.cc != nil
		c.mu.Unlock()
		if stuck {
			break
		}
		select {
		case <-deadline:
			t.Fatal("call never dialed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	time.Sleep(50 * time.Millisecond)

	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked behind a stuck frame write")
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write to never-reading peer succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stuck call did not fail after Close")
	}
	if conn := <-accepted; conn != nil {
		conn.Close()
	}
}

// Regression for the old dropConn: tearing down one connection must wake
// and deregister exactly that connection's waiters, leaving calls on
// other (newer) connections untouched.
func TestDropSignalsOnlyOwnWaiters(t *testing.T) {
	c := Dial("127.0.0.1:1", ClientConfig{ServerName: "svc"})
	defer c.Close()
	cc1 := &clientConn{ready: make(chan struct{})}
	cc2 := &clientConn{ready: make(chan struct{})}
	ch1 := make(chan *Message, 1)
	ch2 := make(chan *Message, 1)
	c.mu.Lock()
	c.pending[1] = pendingCall{ch: ch1, cc: cc1}
	c.pending[2] = pendingCall{ch: ch2, cc: cc2}
	c.mu.Unlock()

	c.drop(cc1)

	select {
	case m := <-ch1:
		if m != nil {
			t.Fatalf("dropped waiter got %+v, want nil signal", m)
		}
	default:
		t.Fatal("waiter on dropped connection not signalled")
	}
	c.mu.Lock()
	_, gone := c.pending[1]
	p2, kept := c.pending[2]
	c.mu.Unlock()
	if gone {
		t.Fatal("dropped connection's pending entry not deleted")
	}
	if !kept || p2.cc != cc2 {
		t.Fatal("other connection's pending entry disturbed")
	}
	select {
	case <-ch2:
		t.Fatal("waiter on live connection spuriously signalled")
	default:
	}
}

// The server must keep serving v1 clients (per-message tokens, JSON, no
// hello) unchanged — compatibility in the server->old-client direction.
func TestV2ServerServesV1Client(t *testing.T) {
	anchor, proxy := testCA(t)
	s, _ := newEchoServer(t, ServerConfig{Name: "svc", Anchor: anchor})
	// DisableSession + JSON codec is exactly what a v1 client sends.
	c := Dial(s.Addr(), ClientConfig{ServerName: "svc", Credential: proxy, DisableSession: true})
	defer c.Close()
	for i := 0; i < 3; i++ {
		var resp echoResp
		if err := c.Call("echo", echoReq{Text: "v1"}, &resp); err != nil {
			t.Fatal(err)
		}
	}
}

// Hello is idempotent and sessions are per-connection: two clients get
// distinct sessions and neither can observe the other's.
func TestSessionsAreDistinctPerConnection(t *testing.T) {
	anchor, proxy := testCA(t)
	s, _ := newEchoServer(t, ServerConfig{Name: "svc", Anchor: anchor})
	c1 := Dial(s.Addr(), ClientConfig{ServerName: "svc", Credential: proxy})
	defer c1.Close()
	c2 := Dial(s.Addr(), ClientConfig{ServerName: "svc", Credential: proxy})
	defer c2.Close()
	if err := c1.Call("echo", echoReq{Text: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c2.Call("echo", echoReq{Text: "b"}, nil); err != nil {
		t.Fatal(err)
	}
	s1 := currentConn(t, c1).session
	s2 := currentConn(t, c2).session
	if s1 == "" || s2 == "" || s1 == s2 {
		t.Fatalf("sessions %q / %q: want two distinct non-empty IDs", s1, s2)
	}
}
