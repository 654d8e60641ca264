package wire

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gsi"
)

// ClientConfig configures a Client.
type ClientConfig struct {
	// ServerName must match the server's configured Name; it binds auth
	// tokens to this service.
	ServerName string
	// Credential authenticates this client. With a credential set the
	// client establishes a per-connection session at connect (one token
	// signed for the wire.hello handshake) and subsequent requests carry
	// only the session ID; nil sends no authentication at all.
	Credential *gsi.Credential
	// Clock for token issuance; defaults to wall time.
	Clock gsi.Clock
	// Timeout is the per-attempt wait for a response (default 2s).
	Timeout time.Duration
	// Retries is how many times a timed-out request is re-sent with the
	// SAME sequence number (default 3; -1 disables retries entirely).
	// Retries are what make the reply cache load-bearing.
	Retries int
	// RetryBackoff is the base delay before the first retry; it doubles
	// on each subsequent attempt (default 50ms).
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential growth (default 1s). Up to
	// 50% random jitter is added on top of each delay so simultaneous
	// retries against a recovering server spread out.
	RetryBackoffMax time.Duration
	// Codec requests a frame encoding: CodecJSON (the default) or
	// CodecBinary. Binary is negotiated by the wire.hello handshake; a
	// frame that carries a blob is binary either way.
	Codec string
	// DisableSession keeps per-message auth tokens even when a
	// credential is set (no session handshake) — the protocol v1
	// behaviour, kept for ablation and compatibility testing.
	DisableSession bool
}

// clientConn is one dialed connection plus everything negotiated on it.
// The ready channel closes once dial+handshake settle (err says how);
// fields other than err are immutable after that, so post-ready readers
// need no lock.
type clientConn struct {
	ready chan struct{}
	err   error // terminal dial/handshake error, set before ready closes

	conn    net.Conn
	wmu     sync.Mutex // serializes frame writes; never held across c.mu
	codec   string     // negotiated write codec ("" = JSON)
	session string     // authenticated session ID ("" = per-message tokens)
}

func (cc *clientConn) write(m *Message) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return writeFrameCodec(cc.conn, m, cc.codec)
}

// pendingCall tags each waiter with the connection its request went out
// on, so tearing down one connection wakes exactly its own waiters.
type pendingCall struct {
	ch chan *Message
	cc *clientConn
}

// Client is a connection-caching RPC client. Concurrent Calls multiplex
// over one TCP connection; a broken connection is redialed transparently on
// the next attempt, which is exactly the "client repeats the request"
// behaviour of the GRAM two-phase commit protocol.
type Client struct {
	cfg      ClientConfig
	addr     string
	clientID string
	seq      atomic.Uint64

	mu      sync.Mutex
	cc      *clientConn
	pending map[uint64]pendingCall
	closed  bool
}

// Dial creates a client for the server at addr. No connection is made
// until the first Call.
func Dial(addr string, cfg ClientConfig) *Client {
	if cfg.Clock == nil {
		cfg.Clock = gsi.WallClock
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 3
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.RetryBackoffMax == 0 {
		cfg.RetryBackoffMax = time.Second
	}
	if cfg.RetryBackoffMax < cfg.RetryBackoff {
		cfg.RetryBackoffMax = cfg.RetryBackoff
	}
	idBytes := make([]byte, 8)
	rand.Read(idBytes)
	return &Client{
		cfg:      cfg,
		addr:     addr,
		clientID: hex.EncodeToString(idBytes),
		pending:  make(map[uint64]pendingCall),
	}
}

// SetCredential replaces the signing credential (used after proxy
// refresh) and drops the current connection, forcing the next attempt to
// re-handshake — a session minted under the old credential must not
// outlive it.
func (c *Client) SetCredential(cred *gsi.Credential) {
	c.mu.Lock()
	c.cfg.Credential = cred
	cc := c.cc
	c.mu.Unlock()
	if cc != nil {
		c.drop(cc)
	}
}

// NextSeq reserves a fresh sequence number. CallSeq with the same number is
// idempotent on the server, which is how the GRAM client achieves
// exactly-once submission across crashes: it journals the sequence number
// before first use and replays it during recovery.
func (c *Client) NextSeq() uint64 { return c.seq.Add(1) }

// Call performs an RPC with a fresh sequence number.
func (c *Client) Call(method string, req, resp any) error {
	return c.CallSeq(c.NextSeq(), method, req, resp)
}

// CallSeq performs an RPC with a caller-chosen sequence number, retrying on
// timeout with the same number.
func (c *Client) CallSeq(seq uint64, method string, req, resp any) error {
	_, err := c.call(seq, method, req, nil, resp)
	return err
}

// CallBlob is Call for a method that moves bulk bytes: blob rides the
// request frame as a raw attachment, and the response's attachment is
// returned (it aliases the received frame; nil when there is none).
func (c *Client) CallBlob(method string, req any, blob []byte, resp any) ([]byte, error) {
	return c.call(c.NextSeq(), method, req, blob, resp)
}

// CallSection is CallBlob with the request's attachment read from a file
// section as the frame goes out, on every attempt. A section the file does
// not hold fails the call with ErrShortSection, without a retry.
func (c *Client) CallSection(method string, req any, sec Section, resp any) ([]byte, error) {
	return c.callFrom(c.NextSeq(), method, req, nil, &sec, resp)
}

func (c *Client) call(seq uint64, method string, req any, blob []byte, resp any) ([]byte, error) {
	return c.callFrom(seq, method, req, blob, nil, resp)
}

// callFrom runs one RPC whose request attachment, if any, is blob or sec.
func (c *Client) callFrom(seq uint64, method string, req any, blob []byte, sec *Section, resp any) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal request: %w", err)
	}
	var lastErr error = ErrTimeout
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoff(attempt))
		}
		msg, err := c.attempt(seq, method, body, blob, sec)
		if err != nil {
			if IsRemote(err) || errors.Is(err, ErrShortSection) {
				// A handshake rejection (e.g. AuthExpired) is the
				// server's verdict, not a transport loss: surface it
				// with its class instead of retrying into it.
				return nil, err
			}
			if errors.Is(err, ErrClosed) {
				// No attempt can succeed on a closed client.
				return nil, faultclass.New(faultclass.Transient, fmt.Errorf("%w: %s", ErrClosed, method))
			}
			lastErr = err
			continue
		}
		if msg.Error != "" {
			return nil, &RemoteError{Msg: msg.Error, Class: faultclass.Parse(msg.Fault)}
		}
		if resp != nil && len(msg.Body) > 0 {
			if err := json.Unmarshal(msg.Body, resp); err != nil {
				return nil, fmt.Errorf("wire: unmarshal response: %w", err)
			}
		}
		return msg.Blob, nil
	}
	// Transport failures are transient by definition: the verdict on
	// the job (if any) lives at the site, unreached.
	return nil, faultclass.New(faultclass.Transient,
		fmt.Errorf("%w: %s (%v)", ErrTimeout, method, lastErr))
}

// backoff computes the delay before retry attempt n (1-based):
// exponential from RetryBackoff, capped at RetryBackoffMax, with up to
// 50% random jitter.
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.RetryBackoff
	for i := 1; i < n && d < c.cfg.RetryBackoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.RetryBackoffMax {
		d = c.cfg.RetryBackoffMax
	}
	return d + time.Duration(mrand.Int63n(int64(d)/2+1))
}

func (c *Client) attempt(seq uint64, method string, body json.RawMessage, blob []byte, sec *Section) (*Message, error) {
	if sec != nil {
		// Before the connection: a short file is this side's fault, and
		// nothing has been sent that would have to be torn.
		if err := sec.check(); err != nil {
			return nil, err
		}
	}
	cc, err := c.conn()
	if err != nil {
		return nil, err
	}
	msg := &Message{
		ClientID: c.clientID,
		Seq:      seq,
		Kind:     "req",
		Method:   method,
		Body:     body,
		Blob:     blob,
		section:  sec,
	}
	if cc.session != "" {
		msg.Session = cc.session
	} else {
		c.mu.Lock()
		cred := c.cfg.Credential
		c.mu.Unlock()
		if cred != nil {
			tok, err := gsi.NewAuthToken(cred, authContext(c.cfg.ServerName, method), c.cfg.Clock())
			if err != nil {
				return nil, err
			}
			msg.Token = tok
		}
	}
	return c.exchange(cc, msg)
}

// exchange sends msg on cc and waits one Timeout for the response that
// carries its sequence number.
func (c *Client) exchange(cc *clientConn, msg *Message) (*Message, error) {
	seq := msg.Seq
	ch := make(chan *Message, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.pending[seq] = pendingCall{ch: ch, cc: cc}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		// Only remove our own registration: a concurrent drop may have
		// already cleared it, and a retry may have re-registered seq.
		if p, ok := c.pending[seq]; ok && p.ch == ch {
			delete(c.pending, seq)
		}
		c.mu.Unlock()
	}()
	// The frame goes out under the connection's own write mutex, never
	// under c.mu: a blocked TCP write must not stall unrelated callers
	// (or the teardown path that would unblock it).
	if err := cc.write(msg); err != nil {
		c.drop(cc)
		return nil, err
	}
	select {
	case m := <-ch:
		if m == nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil, ErrClosed
			}
			return nil, fmt.Errorf("wire: connection lost")
		}
		return m, nil
	case <-time.After(c.cfg.Timeout):
		return nil, ErrTimeout
	}
}

// conn returns the live connection, dialing and handshaking if necessary.
// Concurrent callers share one dial: the first caller establishes, the
// rest wait on ready.
func (c *Client) conn() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if cc := c.cc; cc != nil {
		c.mu.Unlock()
		<-cc.ready
		if cc.err != nil {
			return nil, cc.err
		}
		return cc, nil
	}
	cc := &clientConn{ready: make(chan struct{})}
	c.cc = cc
	cred := c.cfg.Credential
	c.mu.Unlock()

	if err := c.establish(cc, cred); err != nil {
		cc.err = err
		close(cc.ready)
		c.drop(cc)
		return nil, err
	}
	c.mu.Lock()
	closed := c.closed
	superseded := c.cc != cc || closed
	c.mu.Unlock()
	if superseded {
		// SetCredential or Close raced the handshake; this connection's
		// session may be stale, so discard it rather than hand it out.
		cc.err = fmt.Errorf("wire: connection superseded")
		if closed {
			cc.err = ErrClosed
		}
		close(cc.ready)
		c.drop(cc)
		return nil, cc.err
	}
	close(cc.ready)
	return cc, nil
}

// establish dials and, when warranted, runs the wire.hello handshake on cc.
func (c *Client) establish(cc *clientConn, cred *gsi.Credential) error {
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.Timeout)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	cc.conn = conn
	c.mu.Unlock()
	go c.readLoop(cc)
	wantSession := cred != nil && !c.cfg.DisableSession
	wantBinary := c.cfg.Codec == CodecBinary
	if !wantSession && !wantBinary {
		return nil // per-message tokens and JSON frames: nothing to negotiate
	}
	return c.handshake(cc, cred, wantSession)
}

// handshake sends wire.hello and applies the negotiated session and codec
// to cc.
func (c *Client) handshake(cc *clientConn, cred *gsi.Credential, wantSession bool) error {
	body, err := json.Marshal(helloReq{Codecs: []string{c.cfg.Codec}})
	if err != nil {
		return err
	}
	msg := &Message{
		ClientID: c.clientID,
		Seq:      c.NextSeq(),
		Kind:     "req",
		Method:   HelloMethod,
		Body:     body,
	}
	if cred != nil {
		tok, err := gsi.NewAuthToken(cred, authContext(c.cfg.ServerName, HelloMethod), c.cfg.Clock())
		if err != nil {
			return err
		}
		msg.Token = tok
	}
	m, err := c.exchange(cc, msg)
	if err != nil {
		return err
	}
	if m.Error != "" {
		return &RemoteError{Msg: m.Error, Class: faultclass.Parse(m.Fault)}
	}
	var resp helloResp
	if err := json.Unmarshal(m.Body, &resp); err != nil {
		return fmt.Errorf("wire: bad hello response: %w", err)
	}
	if wantSession {
		cc.session = resp.Session
	}
	if resp.Codec == CodecBinary && c.cfg.Codec == CodecBinary {
		cc.wmu.Lock()
		cc.codec = CodecBinary
		cc.wmu.Unlock()
	}
	return nil
}

func (c *Client) readLoop(cc *clientConn) {
	for {
		msg, err := ReadFrame(cc.conn)
		if err != nil {
			c.drop(cc)
			return
		}
		if msg.Kind != "resp" {
			continue
		}
		c.mu.Lock()
		p, ok := c.pending[msg.Seq]
		c.mu.Unlock()
		if ok && p.cc == cc {
			select {
			case p.ch <- msg:
			default:
			}
		}
	}
}

// drop discards cc and wakes the waiters whose requests went out on it so
// they can retry on a fresh connection. Each entry is deleted as it is
// signalled: a retry that re-registers the same seq must never receive
// this dead connection's stale nil, and waiters on other connections are
// left alone entirely.
func (c *Client) drop(cc *clientConn) {
	c.mu.Lock()
	if c.cc == cc {
		c.cc = nil
	}
	conn := cc.conn
	for seq, p := range c.pending {
		if p.cc != cc {
			continue
		}
		select {
		case p.ch <- nil:
		default:
		}
		delete(c.pending, seq)
	}
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Ping checks liveness with a tiny RPC round-trip using a single attempt
// (no retries — a probe wants a fast verdict, and mutating the shared retry
// budget would race concurrent Calls).
func (c *Client) Ping(method string) error {
	msg, err := c.attempt(c.NextSeq(), method, []byte("{}"), nil, nil)
	if err != nil {
		if IsRemote(err) {
			return err
		}
		return faultclass.New(faultclass.Transient, err)
	}
	if msg.Error != "" {
		return &RemoteError{Msg: msg.Error, Class: faultclass.Parse(msg.Fault)}
	}
	return nil
}

// Close releases the connection. In-flight calls and every later call fail
// at once with a Transient error wrapping ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	cc := c.cc
	c.cc = nil
	var conn net.Conn
	if cc != nil {
		conn = cc.conn
	}
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
