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
// # Append streams
//
// gass.append creates no file. Each append is one framed record
// (crc32c | path len | data len | path | data) written with one positional
// write to a single append-only log under the root, and an in-memory index
// maps each path to its records' extents and size. A path is an on-disk file
// or a stream of logged bytes, never both: gass.write to a stream is
// refused, and so is a first append to a path that is on disk. ReadFile,
// gass.read and gass.stat serve either, an append answers with the
// stream's size, and Open serves on-disk files only. Appends are not fsynced.
// Opening the log walks its record headers once to rebuild the index, and
// cuts off a torn tail and a last record whose checksum fails. The log
// lives under the root, but no request path names it.
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
	"path"
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

// Server exposes a directory tree over the wire protocol, and the streams
// of its append log beside it.
type Server struct {
	root string
	srv  *wire.Server
	mu   sync.Mutex // serializes writes and guards log
	log  *appendLog
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
	log, err := openAppendLog(filepath.Join(root, appendLogName))
	if err != nil {
		return nil, err
	}
	ws, err := wire.NewServer(wire.ServerConfig{
		Name:   ServiceName,
		Anchor: opts.Anchor,
		Clock:  opts.Clock,
		Faults: opts.Faults,
	})
	if err != nil {
		log.f.Close()
		return nil, err
	}
	s := &Server{root: root, srv: ws, log: log}
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

// Conns reports how many connections the server holds open.
func (s *Server) Conns() int { return s.srv.Conns() }

// Close shuts the server down.
func (s *Server) Close() error {
	err := s.srv.Close()
	if cerr := s.log.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// clean confines a request path to the served root: it returns the path
// relative to the root in canonical form. A ".." segment and the append
// log's own name are refused.
func clean(p string) (string, error) {
	for _, seg := range strings.Split(filepath.ToSlash(p), "/") {
		if seg == ".." {
			return "", fmt.Errorf("gass: path escapes root: %q", p)
		}
	}
	rel := strings.TrimPrefix(path.Clean("/"+filepath.ToSlash(p)), "/")
	if rel == appendLogName {
		return "", fmt.Errorf("gass: %q is not served", p)
	}
	return rel, nil
}

// resolve confines a request path to the served root: it returns the
// path's key (see clean) and its file.
func (s *Server) resolve(p string) (key, full string, err error) {
	if key, err = clean(p); err != nil {
		return "", "", err
	}
	return key, filepath.Join(s.root, filepath.FromSlash(key)), nil
}

// writeAt is gass.write: data lands at off, in a file emptied first when
// truncate is set. A path with appended bytes is a stream, not a file, and
// is refused.
func (s *Server) writeAt(rel string, off int64, data []byte, truncate bool) error {
	key, full, err := s.resolve(rel)
	if err != nil {
		return err
	}
	flags := os.O_CREATE | os.O_WRONLY
	if truncate {
		flags |= os.O_TRUNC
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.streams[key] != nil {
		return fmt.Errorf("gass: %q is an append stream", rel)
	}
	if err := os.MkdirAll(filepath.Dir(full), 0o700); err != nil {
		return err
	}
	f, err := os.OpenFile(full, flags, 0o700)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt(data, off)
	return err
}

// appendTo is gass.append: data becomes one record of the path's stream
// in the append log. It returns the path's size after the append.
func (s *Server) appendTo(rel string, data []byte) (int64, error) {
	key, full, err := s.resolve(rel)
	if err != nil {
		return 0, err
	}
	if key == "" {
		return 0, fmt.Errorf("gass: append to the root %q", rel)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.log.streams[key]
	if st == nil {
		// The path's first append: a path on disk is a file, not a stream.
		if _, err := os.Stat(full); err == nil {
			return 0, fmt.Errorf("gass: %q is a file, not an append stream", rel)
		} else if !errors.Is(err, os.ErrNotExist) {
			return 0, err
		}
		st = &stream{}
	}
	if err := s.log.append(key, st, data); err != nil {
		return 0, err
	}
	return st.size, nil
}

// view is a snapshot of one path: its file and, for a stream, its logged
// extents and size.
type view struct {
	full string
	exts []extent
	size int64
}

// streamView returns the view of rel when its stream is in the log, and
// ok false (with the resolved file path) when it is a plain file.
func (s *Server) streamView(rel string) (v view, ok bool, err error) {
	key, full, err := s.resolve(rel)
	if err != nil {
		return view{}, false, err
	}
	v.full = full
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.log.streams[key]
	if st == nil {
		return v, false, nil
	}
	v.exts, v.size = st.extents, st.size
	return v, true, nil
}

// ReadFile returns the content at rel (a path under the served root): its
// on-disk file or its appended bytes. A path nobody has written or appended
// to yet is os.ErrNotExist.
func (s *Server) ReadFile(rel string) ([]byte, error) {
	v, ok, err := s.streamView(rel)
	if err != nil {
		return nil, err
	}
	if !ok {
		return os.ReadFile(v.full)
	}
	buf := make([]byte, v.size)
	if err := s.log.readAt(v.exts, buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// Open opens the on-disk file at rel (a path under the served root) for
// reading. An append stream's logged bytes are not in it: ReadFile serves
// those.
func (s *Server) Open(rel string) (*os.File, error) {
	_, full, err := s.resolve(rel)
	if err != nil {
		return nil, err
	}
	return os.Open(full)
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
	v, ok, err := s.streamView(req.Path)
	if err != nil {
		return nil, err
	}
	if ok {
		return statResp{Size: v.size, Exists: true}, nil
	}
	fi, err := os.Stat(v.full)
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
	if req.MaxLen <= 0 || req.MaxLen > ChunkSize {
		req.MaxLen = ChunkSize
	}
	v, ok, err := s.streamView(req.Path)
	if err != nil {
		return nil, nil, err
	}
	if ok {
		off := max(req.Offset, 0)
		n := max(min(int64(req.MaxLen), v.size-off), 0)
		buf := make([]byte, n)
		if err := s.log.readAt(v.exts, buf, off); err != nil {
			return nil, nil, err
		}
		return readResp{EOF: off+n >= v.size}, buf, nil
	}
	f, err := os.Open(v.full)
	if err != nil {
		return nil, nil, fmt.Errorf("gass: %w", err)
	}
	defer f.Close()
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
	Size int64 `json:"size"` // the path's size after the append
}

func (s *Server) handleAppend(_ string, body json.RawMessage, data []byte) (any, []byte, error) {
	var req fileReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, err
	}
	size, err := s.appendTo(req.Path, data)
	if err != nil {
		return nil, nil, err
	}
	return appendResp{Size: size}, nil, nil
}
