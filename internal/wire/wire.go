// Package wire is the transport substrate for every Grid protocol in this
// repository (GRAM, GASS, MDS, GridFTP, MyProxy, and the Condor daemons).
// It provides length-prefixed frames over TCP (a JSON or binary envelope,
// plus an opaque byte attachment for bulk data), request/response RPC with
// client-chosen sequence numbers, per-request GSI authentication, a
// server-side reply cache that makes retries idempotent (the mechanism
// behind the paper's two-phase commit: "the repeated sequence number allows
// the resource to distinguish between a lost request and a lost response",
// §3.2), and fault-injection hooks used by the failure experiments.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gsi"
)

// MaxFrame bounds a single message; larger frames indicate corruption.
const MaxFrame = 16 << 20

// Message is the on-wire unit.
type Message struct {
	ClientID string         `json:"client_id"`
	Seq      uint64         `json:"seq"`
	Kind     string         `json:"kind"` // "req" or "resp"
	Method   string         `json:"method,omitempty"`
	Token    *gsi.AuthToken `json:"token,omitempty"`
	// Session identifies an authenticated per-connection session
	// established by the wire.hello handshake; requests carrying a valid
	// session ID skip per-message token verification (protocol v2).
	Session string          `json:"session,omitempty"`
	Body    json.RawMessage `json:"body,omitempty"`
	Error   string          `json:"error,omitempty"`
	// Fault carries the faultclass name for Error, so clients can
	// branch on a typed class instead of the error prose.
	Fault string `json:"fault,omitempty"`
	// Blob is an opaque byte attachment: bulk data rides here instead of
	// base64 inside Body. Only the binary framing carries it, so a frame
	// with a blob is always written binary; on decode it aliases the frame
	// buffer.
	Blob []byte `json:"-"`
	// section, when set, is the blob instead of Blob: a request's bytes
	// sent from a file (Client.CallSection).
	section *Section
}

// blobLen is the length of m's blob, wherever its bytes are.
func (m *Message) blobLen() int64 {
	if m.section != nil {
		return m.section.N
	}
	return int64(len(m.Blob))
}

// ReadFrame reads one framed message from r. The payload codec is
// detected per frame, so a reader accepts JSON and binary frames
// regardless of what was negotiated for the write direction.
func ReadFrame(r io.Reader) (*Message, error) {
	m, _, err := readFrame(r, nil)
	return m, err
}

// readFrame is ReadFrame reading a frame of bigFrame bytes or more into a
// buffer of bufs (when bufs is set). That buffer is returned with the
// message, which may alias it; the caller hands it back once nothing
// reads the message any more.
func readFrame(r io.Reader, bufs *frameBufs) (*Message, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > MaxFrame {
		return nil, nil, fmt.Errorf("wire: oversized frame: %d", size)
	}
	var buf, reused []byte
	if bufs != nil && size >= bigFrame {
		buf = bufs.get(int(size))
		reused = buf
	} else {
		buf = make([]byte, size)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		bufs.put(reused)
		return nil, nil, err
	}
	m, err := decodeMessage(buf)
	if err != nil {
		bufs.put(reused)
		return nil, nil, err
	}
	return m, reused, nil
}

// bigFrame is the size from which a server reads a request frame into a
// buffer it reuses: the bulk frames (a staging chunk, a GASS write). A
// smaller frame costs less to allocate than to keep.
const bigFrame = 64 << 10

// maxFrameBufs bounds a server's free list of frame buffers: more big
// requests in flight at once than this allocate their own. A kept buffer
// is live heap, and the collector lets the heap grow to twice what is
// live: with eight per gatekeeper the staging benchmark's peak RSS rose
// by 35 MB, with two it stayed within a run's noise.
const maxFrameBufs = 2

// frameBufs is a server's free list of big-frame buffers. A buffer is out
// from the read of its frame until the request's handler has returned and
// its reply has been written; the decoded request (its body and blob)
// aliases it until then, which is what BlobHandler's "valid only until the
// handler returns" allows.
type frameBufs struct {
	mu   sync.Mutex
	free [][]byte
}

// get returns a buffer of n bytes: a free one large enough, or a new one
// whose capacity is n rounded up to bigFrame, so frames of about one size
// share buffers.
func (b *frameBufs) get(n int) []byte {
	b.mu.Lock()
	for i, buf := range b.free {
		if cap(buf) >= n {
			last := len(b.free) - 1
			b.free[i] = b.free[last]
			b.free[last] = nil
			b.free = b.free[:last]
			b.mu.Unlock()
			return buf[:n]
		}
	}
	b.mu.Unlock()
	return make([]byte, n, (n+bigFrame-1)/bigFrame*bigFrame)
}

// put hands a buffer back; nil, and one beyond the bound, are dropped.
func (b *frameBufs) put(buf []byte) {
	if b == nil || buf == nil {
		return
	}
	b.mu.Lock()
	if len(b.free) < maxFrameBufs {
		b.free = append(b.free, buf)
	}
	b.mu.Unlock()
}

// Handler serves one RPC method. peer is the authenticated grid subject
// ("" when the server runs unauthenticated). The returned value is
// marshalled into the response body.
type Handler func(peer string, body json.RawMessage) (any, error)

// BlobHandler is a Handler for a method that moves bulk bytes: blob is the
// request's attachment and respBlob is attached to the response. blob and
// body are valid only until the handler returns: they alias the frame
// buffer, which the server reads its next big request into once the reply
// is written. So a handler keeps neither, and never returns a respBlob
// that aliases them (the reply cache keeps respBlob).
type BlobHandler func(peer string, body json.RawMessage, blob []byte) (result any, respBlob []byte, err error)

// Faults lets tests and experiments inject the failure modes of §3.2/§4.2.
// Each hook is consulted per request (or per connection for the
// connection-level hooks); nil hooks never fire.
type Faults struct {
	mu sync.Mutex
	// DropRequest: pretend the request never arrived (no processing).
	DropRequest func(method string) bool
	// DropResponse: process the request but lose the reply.
	DropResponse func(method string) bool
	// Delay: artificial processing delay (latency/jitter injection).
	Delay func(method string) time.Duration
	// RefuseConn: bidirectional partition at the connection level —
	// new connections are accepted and immediately severed, so dials
	// appear to succeed but nothing ever flows.
	RefuseConn func() bool
	// BlackholeConn: one-way partition — request frames are read off
	// the wire and silently discarded without processing, so the
	// client sees its sends succeed but never hears back.
	BlackholeConn func() bool
	// ResetMidFrame: the connection is reset midway through writing
	// the response frame for this method (the work already happened
	// and is in the reply cache; only the frame is torn).
	ResetMidFrame func(method string) bool
}

func (f *Faults) dropRequest(m string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	hook := f.DropRequest
	f.mu.Unlock()
	return hook != nil && hook(m)
}

func (f *Faults) dropResponse(m string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	hook := f.DropResponse
	f.mu.Unlock()
	return hook != nil && hook(m)
}

func (f *Faults) delay(m string) time.Duration {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	hook := f.Delay
	f.mu.Unlock()
	if hook == nil {
		return 0
	}
	return hook(m)
}

func (f *Faults) refuseConn() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	hook := f.RefuseConn
	f.mu.Unlock()
	return hook != nil && hook()
}

func (f *Faults) blackholeConn() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	hook := f.BlackholeConn
	f.mu.Unlock()
	return hook != nil && hook()
}

func (f *Faults) resetMidFrame(m string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	hook := f.ResetMidFrame
	f.mu.Unlock()
	return hook != nil && hook(m)
}

// Set atomically replaces the message-drop hooks.
func (f *Faults) Set(dropReq, dropResp func(string) bool) {
	f.mu.Lock()
	f.DropRequest = dropReq
	f.DropResponse = dropResp
	f.mu.Unlock()
}

// SetDelay atomically replaces the latency hook.
func (f *Faults) SetDelay(delay func(string) time.Duration) {
	f.mu.Lock()
	f.Delay = delay
	f.mu.Unlock()
}

// SetConn atomically replaces the connection-level chaos hooks.
func (f *Faults) SetConn(refuse, blackhole func() bool, reset func(string) bool) {
	f.mu.Lock()
	f.RefuseConn = refuse
	f.BlackholeConn = blackhole
	f.ResetMidFrame = reset
	f.mu.Unlock()
}

// Clear removes every hook.
func (f *Faults) Clear() {
	f.mu.Lock()
	f.DropRequest = nil
	f.DropResponse = nil
	f.Delay = nil
	f.RefuseConn = nil
	f.BlackholeConn = nil
	f.ResetMidFrame = nil
	f.mu.Unlock()
}

// ServerConfig configures a Server.
type ServerConfig struct {
	// Name is used in log lines and as part of the auth context.
	Name string
	// Anchor, when set, requires every request to carry a token that
	// verifies against this trust anchor.
	Anchor *gsi.Certificate
	// Clock for token freshness; defaults to wall time.
	Clock gsi.Clock
	// Faults is the injection point for failure experiments.
	Faults *Faults
}

// Server is a TCP RPC server.
type Server struct {
	cfg      ServerConfig
	lis      net.Listener
	mu       sync.Mutex
	handlers map[string]BlobHandler
	conns    map[net.Conn]struct{}
	cache    *replyCache
	bufs     frameBufs
	paused   bool
	closed   bool
	wg       sync.WaitGroup
}

// NewServer creates a server listening on 127.0.0.1 with an OS-chosen port.
func NewServer(cfg ServerConfig) (*Server, error) {
	return NewServerAddr("127.0.0.1:0", cfg)
}

// NewServerAddr creates a server on an explicit address. The crash-restart
// experiments use it to bring a Gatekeeper back on its published port.
func NewServerAddr(addr string, cfg ServerConfig) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = gsi.WallClock
	}
	s := &Server{
		cfg:      cfg,
		lis:      lis,
		handlers: make(map[string]BlobHandler),
		conns:    make(map[net.Conn]struct{}),
		cache:    newReplyCache(4096),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address ("host:port").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Handle registers a handler for method. It panics on duplicates: a
// misrouted protocol is a programming error.
func (s *Server) Handle(method string, h Handler) {
	s.HandleBlob(method, func(peer string, body json.RawMessage, _ []byte) (any, []byte, error) {
		result, err := h(peer, body)
		return result, nil, err
	})
}

// HandleBlob registers a handler that receives and returns blobs.
func (s *Server) HandleBlob(method string, h BlobHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic("wire: duplicate handler for " + method)
	}
	s.handlers[method] = h
}

// Pause simulates a network partition or machine freeze: existing
// connections are severed and new ones are refused until Resume.
func (s *Server) Pause() {
	s.mu.Lock()
	s.paused = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// Resume ends a Pause.
func (s *Server) Resume() {
	s.mu.Lock()
	s.paused = false
	s.mu.Unlock()
}

// Conns reports how many connections the server holds open.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close shuts the server down, severing all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.lis.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		if s.cfg.Faults.refuseConn() {
			conn.Close() // bidirectional partition: sever on arrival
			continue
		}
		s.mu.Lock()
		if s.closed || s.paused {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sc := &srvConn{conn: conn}
	for {
		msg, buf, err := readFrame(conn, &s.bufs)
		if err != nil {
			return
		}
		if msg.Kind != "req" || s.cfg.Faults.blackholeConn() {
			// Not a request, or a one-way partition: the frame arrived,
			// then vanished.
			s.bufs.put(buf)
			continue
		}
		if msg.Method == HelloMethod {
			// Handled inline on the read loop: no further frames are
			// read until the hello response is written, so the codec
			// switch and session state need no ordering games against
			// concurrently dispatched requests.
			s.handleHello(sc, msg)
			s.bufs.put(buf)
			continue
		}
		s.wg.Add(1)
		go func(msg *Message) {
			defer s.wg.Done()
			// The frame's buffer is free once the handler has returned
			// and the reply is written: nothing reads msg after that.
			defer s.bufs.put(buf)
			resp := s.dispatch(msg, sc)
			if resp == nil {
				return // injected request/response loss
			}
			if s.cfg.Faults.resetMidFrame(msg.Method) {
				writeTornFrame(sc, resp)
				return
			}
			if err := sc.write(resp); err != nil {
				conn.Close()
			}
		}(msg)
	}
}

// writeTornFrame writes the frame header and only part of the payload,
// then resets the connection — the mid-frame connection loss of §4.2.
// The response stays in the reply cache, so a client retry of the same
// sequence number still gets exactly-once semantics.
func writeTornFrame(sc *srvConn, m *Message) {
	sc.wmu.Lock()
	if head, err := encodeFrame(m, sc.codec); err == nil {
		sc.conn.Write(head[:4+(len(head)-4)/2])
	}
	sc.wmu.Unlock()
	sc.conn.Close()
}

// dispatch runs one request through fault injection, the reply cache,
// authentication, and the handler. A nil return means "say nothing".
func (s *Server) dispatch(msg *Message, sc *srvConn) *Message {
	if d := s.cfg.Faults.delay(msg.Method); d > 0 {
		time.Sleep(d)
	}
	if s.cfg.Faults.dropRequest(msg.Method) {
		return nil
	}
	key := cacheKey{client: msg.ClientID, seq: msg.Seq}
	if cached, ok := s.cache.get(key); ok {
		if s.cfg.Faults.dropResponse(msg.Method) {
			return nil
		}
		return cached
	}
	resp := &Message{ClientID: msg.ClientID, Seq: msg.Seq, Kind: "resp"}
	peer, err := s.authenticate(msg, sc)
	if err != nil {
		resp.Error = "auth: " + err.Error()
		resp.Fault = faultclass.AuthExpired.String()
		// Auth failures are not cached: a refreshed credential (or a fresh
		// handshake) retrying the same sequence number must be re-evaluated.
		if s.cfg.Faults.dropResponse(msg.Method) {
			return nil
		}
		return resp
	}
	s.mu.Lock()
	h, ok := s.handlers[msg.Method]
	s.mu.Unlock()
	if !ok {
		resp.Error = "wire: no such method " + msg.Method
	} else {
		// The response (its blob included) goes into the reply cache; the
		// request's blob is the handler's only until it returns.
		result, blob, err := h(peer, msg.Body, msg.Blob)
		if err == nil && result != nil {
			if resp.Body, err = json.Marshal(result); err != nil {
				err = fmt.Errorf("wire: marshal response: %w", err)
			}
		}
		if err != nil {
			resp.Error = err.Error()
			if cls := faultclass.ClassOf(err); cls != faultclass.Unknown {
				resp.Fault = cls.String()
			}
		} else {
			resp.Blob = blob
		}
	}
	s.cache.put(key, resp)
	if s.cfg.Faults.dropResponse(msg.Method) {
		return nil // the work happened; the reply is lost
	}
	return resp
}

// authenticate returns the grid subject behind msg ("" on an unanchored
// server). A request that names a session (protocol v2) needs only that this
// very connection established it — the token was verified at handshake; a
// stale or foreign ID fails like a bad token, which sends the client back
// through the handshake. Any other request carries its own token.
func (s *Server) authenticate(msg *Message, sc *srvConn) (string, error) {
	if s.cfg.Anchor == nil {
		return "", nil
	}
	if msg.Session == "" {
		return msg.Token.Verify(s.cfg.Anchor, authContext(s.cfg.Name, msg.Method), s.cfg.Clock())
	}
	if subject, ok := sc.sessionPeer(msg.Session); ok {
		return subject, nil
	}
	return "", errors.New("unknown or expired session")
}

func authContext(server, method string) string { return server + ":" + method }

type cacheKey struct {
	client string
	seq    uint64
}

// replyCache is a bounded FIFO map of completed responses, the server half
// of exactly-once semantics.
type replyCache struct {
	mu    sync.Mutex
	max   int
	order []cacheKey
	m     map[cacheKey]*Message
}

func newReplyCache(max int) *replyCache {
	return &replyCache{max: max, m: make(map[cacheKey]*Message)}
}

func (c *replyCache) get(k cacheKey) (*Message, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

func (c *replyCache) put(k cacheKey, v *Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[k]; exists {
		return
	}
	c.m[k] = v
	c.order = append(c.order, k)
	for len(c.order) > c.max {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
}

// Errors surfaced by the client.
var (
	ErrTimeout = errors.New("wire: request timed out after retries")
	ErrClosed  = errors.New("wire: client closed")
)

// RemoteError wraps an error string returned by a handler, along with
// the fault class the server attached to it (Unknown when untagged).
type RemoteError struct {
	Msg   string
	Class faultclass.Class
}

// Error implements error.
func (e *RemoteError) Error() string { return e.Msg }

// FaultClass exposes the server-assigned class to faultclass.ClassOf.
func (e *RemoteError) FaultClass() faultclass.Class { return e.Class }

// IsRemote reports whether err is an application error from the server (as
// opposed to a transport failure).
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}
