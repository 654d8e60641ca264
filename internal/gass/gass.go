// Package gass implements the Global Access to Secondary Storage service of
// §3.4: a small authenticated file service that Condor-G uses to stage
// executables and stdin to remote sites and to stream stdout/stderr back to
// the submission machine in real time.
//
// # Wire framing
//
// The service speaks the RPC of package wire, under four operations:
// gass.stat, gass.read, gass.write and gass.append. A request's JSON body
// names a server-relative path and a position; file bytes travel beside it
// as the frame's raw blob (gass.read answers with one, gass.write and
// gass.append carry one). The server confines all paths to its root
// directory (a ".." segment is rejected). Reads and writes move at most
// ChunkSize bytes per call, so a single RPC always fits the wire layer's
// framing and timeouts. The process that owns a Server does not dial it:
// Server.Root, Server.ReadFile and Server.Open are the local door to the
// same confined tree. The Condor-G agent commits its spool objects under
// Root, reads its output through ReadFile and pushes executables from Open.
//
// # Resume contract
//
// Reads are offset-based: gass.read takes (path, offset, maxLen) and
// returns (data, eof). After a crash or connection reset the client asks
// for "everything after byte N" via ReadAllFrom — the paper's "permitting
// a client to request resending of this data after a crash". Writes are
// positional too (gass.write carries offset and a truncate flag on the
// first chunk), so an interrupted upload can be re-driven idempotently.
// GASS itself keeps no transfer state; the caller owns the offset. The
// push-model staging plane in package gram layers journaled offsets and
// content hashes on top of this primitive.
//
// A GASS URL has the form gass://host:port/relative/path.
package gass

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"condorg/internal/gsi"
	"condorg/internal/wire"
)

// ChunkSize is the transfer unit for streaming reads and writes.
const ChunkSize = 64 << 10

// ErrBadURL reports a malformed GASS URL.
var ErrBadURL = errors.New("gass: malformed URL")

// URL identifies a file on a GASS server.
type URL struct {
	Addr string // host:port
	Path string // server-relative path, no leading slash
}

// String renders the URL.
func (u URL) String() string { return "gass://" + u.Addr + "/" + u.Path }

// ParseURL parses gass://host:port/path.
func ParseURL(s string) (URL, error) {
	rest, ok := strings.CutPrefix(s, "gass://")
	if !ok {
		return URL{}, fmt.Errorf("%w: %q", ErrBadURL, s)
	}
	addr, path, ok := strings.Cut(rest, "/")
	if !ok || addr == "" || path == "" {
		return URL{}, fmt.Errorf("%w: %q", ErrBadURL, s)
	}
	return URL{Addr: addr, Path: path}, nil
}

// Server exposes a directory tree over the wire protocol.
type Server struct {
	root string
	srv  *wire.Server
	mu   sync.Mutex
}

// ServerOptions configures a GASS server.
type ServerOptions struct {
	// Anchor enables GSI authentication when non-nil.
	Anchor *gsi.Certificate
	// Clock for token verification.
	Clock gsi.Clock
	// Faults allows the failure experiments to break staging.
	Faults *wire.Faults
}

// ServiceName is the wire service name GASS servers register under; clients
// must bind their tokens to it.
const ServiceName = "gass"

// NewServer serves the tree rooted at root on a fresh loopback port.
func NewServer(root string, opts ServerOptions) (*Server, error) {
	if err := os.MkdirAll(root, 0o700); err != nil {
		return nil, err
	}
	ws, err := wire.NewServer(wire.ServerConfig{
		Name:   ServiceName,
		Anchor: opts.Anchor,
		Clock:  opts.Clock,
		Faults: opts.Faults,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{root: root, srv: ws}
	ws.Handle("gass.stat", s.handleStat)
	ws.HandleBlob("gass.read", s.handleRead)
	ws.HandleBlob("gass.write", s.handleWrite)
	ws.HandleBlob("gass.append", s.handleAppend)
	return s, nil
}

// Addr returns host:port.
func (s *Server) Addr() string { return s.srv.Addr() }

// Root returns the served directory.
func (s *Server) Root() string { return s.root }

// URLFor returns the URL of a path under this server.
func (s *Server) URLFor(relPath string) URL { return URL{Addr: s.Addr(), Path: relPath} }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

// resolve confines a request path to the served root.
func (s *Server) resolve(p string) (string, error) {
	for _, seg := range strings.Split(filepath.ToSlash(p), "/") {
		if seg == ".." {
			return "", fmt.Errorf("gass: path escapes root: %q", p)
		}
	}
	return filepath.Join(s.root, filepath.Clean("/"+p)), nil
}

// openForWrite resolves rel, makes its directory and opens the file for
// writing. The caller holds s.mu across the open and what it writes.
func (s *Server) openForWrite(rel string, flags int, perm os.FileMode) (*os.File, error) {
	path, err := s.resolve(rel)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o700); err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|flags, perm)
}

// writeAt is gass.write: data lands at off, in a file emptied first when
// truncate is set.
func (s *Server) writeAt(rel string, off int64, data []byte, truncate bool) error {
	flags := 0
	if truncate {
		flags = os.O_TRUNC
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.openForWrite(rel, flags, 0o700)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt(data, off)
	return err
}

// ReadFile returns the file at rel (a path under the served root); a file
// nobody has written yet is os.ErrNotExist.
func (s *Server) ReadFile(rel string) ([]byte, error) {
	path, err := s.resolve(rel)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// Open opens the file at rel (a path under the served root) for reading.
func (s *Server) Open(rel string) (*os.File, error) {
	path, err := s.resolve(rel)
	if err != nil {
		return nil, err
	}
	return os.Open(path)
}

// fileReq is the body of every verb: the file, where (gass.read/write), how
// much (gass.read), and whether to empty the file first (gass.write).
type fileReq struct {
	Path     string `json:"path"`
	Offset   int64  `json:"offset,omitempty"`
	MaxLen   int    `json:"max_len,omitempty"`
	Truncate bool   `json:"truncate,omitempty"`
}

type statResp struct {
	Size   int64 `json:"size"`
	Exists bool  `json:"exists"`
}

func (s *Server) handleStat(_ string, body json.RawMessage) (any, error) {
	var req fileReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	path, err := s.resolve(req.Path)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return statResp{Exists: false}, nil
	}
	if err != nil {
		return nil, err
	}
	return statResp{Size: fi.Size(), Exists: true}, nil
}

type readResp struct {
	EOF bool `json:"eof"` // the bytes are the response's blob
}

func (s *Server) handleRead(_ string, body json.RawMessage, _ []byte) (any, []byte, error) {
	var req fileReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, err
	}
	path, err := s.resolve(req.Path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("gass: %w", err)
	}
	defer f.Close()
	if req.MaxLen <= 0 || req.MaxLen > ChunkSize {
		req.MaxLen = ChunkSize
	}
	// One byte past the window tells whether the window reaches the end:
	// a read that fills the window exactly up to the end of the file sees
	// no io.EOF.
	buf := make([]byte, req.MaxLen+1)
	n, err := f.ReadAt(buf, req.Offset)
	if err != nil && err != io.EOF {
		return nil, nil, err
	}
	return readResp{EOF: n <= req.MaxLen}, buf[:min(n, req.MaxLen)], nil
}

func (s *Server) handleWrite(_ string, body json.RawMessage, data []byte) (any, []byte, error) {
	var req fileReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, err
	}
	return struct{}{}, nil, s.writeAt(req.Path, req.Offset, data, req.Truncate)
}

type appendResp struct {
	Size int64 `json:"size"` // file size after append
}

func (s *Server) handleAppend(_ string, body json.RawMessage, data []byte) (any, []byte, error) {
	var req fileReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.openForWrite(req.Path, os.O_APPEND, 0o600)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	return appendResp{Size: fi.Size()}, nil, nil
}
