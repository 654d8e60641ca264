// Wire protocol v2: the wire.hello handshake.
//
// v1 signs and verifies a GSI token on every message (~3 ed25519 chain
// verifications per request server-side). v2 moves that cost to connection
// setup: the client sends one wire.hello request carrying a token bound to
// the hello context, the server verifies it once and mints a session ID,
// and every subsequent request on that connection carries only the ID.
// The same handshake negotiates the frame codec for the server->client
// and client->server write directions. Blob frames stand outside it: they
// are binary on any connection, hello or not, because every reader tells
// the framings apart by the first payload byte.
//
// A client that never sends hello (ClientConfig.DisableSession with the
// JSON codec) keeps per-message tokens, which the server goes on verifying.
// Sessions die with their connection — a redial or a credential refresh
// (Client.SetCredential) re-handshakes.
package wire

import (
	"encoding/json"
	"net"
	"sync"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gsi"
)

// HelloMethod is the reserved method name for the protocol v2 handshake.
const HelloMethod = "wire.hello"

type helloReq struct {
	// Codecs the client is willing to receive and send, in preference
	// order. The server picks the first one it supports, else JSON.
	Codecs []string `json:"codecs,omitempty"`
}

type helloResp struct {
	// Session is non-empty when the server verified the hello token and
	// established an authenticated session for this connection.
	Session string `json:"session,omitempty"`
	// Codec both sides will write from now on.
	Codec string `json:"codec"`
}

// srvConn is the server's per-connection state: the write mutex that
// serializes frames from concurrent handlers, the negotiated write codec,
// and the authenticated session established by wire.hello.
type srvConn struct {
	conn net.Conn

	wmu   sync.Mutex
	codec string // write codec; guarded by wmu ("" = JSON)

	smu     sync.Mutex
	session string // non-empty once an authenticated hello succeeded
	peer    string // grid subject bound to the session
}

func (sc *srvConn) write(m *Message) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return writeFrameCodec(sc.conn, m, sc.codec)
}

// sessionPeer returns the subject bound to id if it names this
// connection's live session.
func (sc *srvConn) sessionPeer(id string) (string, bool) {
	sc.smu.Lock()
	defer sc.smu.Unlock()
	if sc.session == "" || id != sc.session {
		return "", false
	}
	return sc.peer, true
}

// handleHello runs the v2 handshake for one connection. It executes on the
// connection's read loop, so no request frame is processed until the
// negotiated codec and session are in place. Hello is idempotent and never
// reply-cached: a repeated hello (credential refresh without redial) simply
// re-verifies and re-keys the session.
func (s *Server) handleHello(sc *srvConn, msg *Message) {
	if d := s.cfg.Faults.delay(HelloMethod); d > 0 {
		time.Sleep(d)
	}
	if s.cfg.Faults.dropRequest(HelloMethod) {
		return
	}
	resp := &Message{ClientID: msg.ClientID, Seq: msg.Seq, Kind: "resp"}
	msg.Session = "" // a hello authenticates by its token, whatever else it names
	peer, err := s.authenticate(msg, sc)
	if err != nil {
		resp.Error = "auth: " + err.Error()
		resp.Fault = faultclass.AuthExpired.String()
		if s.cfg.Faults.dropResponse(HelloMethod) {
			return
		}
		if sc.write(resp) != nil {
			sc.conn.Close()
		}
		return
	}
	var req helloReq
	if len(msg.Body) > 0 {
		// A malformed hello body degrades to the JSON codec rather than
		// failing the handshake.
		_ = json.Unmarshal(msg.Body, &req)
	}
	codec := CodecJSON
	for _, c := range req.Codecs {
		if c == CodecBinary {
			codec = CodecBinary
			break
		}
	}
	out := helloResp{Codec: codec}
	if s.cfg.Anchor != nil {
		out.Session = gsi.NewSessionID()
		sc.smu.Lock()
		sc.session = out.Session
		sc.peer = peer
		sc.smu.Unlock()
	}
	body, err := json.Marshal(out)
	if err != nil {
		resp.Error = "wire: marshal hello response: " + err.Error()
	} else {
		resp.Body = body
	}
	if s.cfg.Faults.resetMidFrame(HelloMethod) {
		writeTornFrame(sc, resp)
		return
	}
	if s.cfg.Faults.dropResponse(HelloMethod) {
		return
	}
	if sc.write(resp) != nil {
		sc.conn.Close()
		return
	}
	// The response to hello itself goes out in the old codec; everything
	// after it in the negotiated one.
	sc.wmu.Lock()
	sc.codec = codec
	sc.wmu.Unlock()
}
