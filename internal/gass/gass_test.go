package gass

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"condorg/internal/gsi"
)

func newPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	s, err := NewServer(t.TempDir(), ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := NewClient(nil, nil)
	t.Cleanup(c.Close)
	return s, c
}

func TestParseURL(t *testing.T) {
	u, err := ParseURL("gass://127.0.0.1:9000/jobs/1/stdout")
	if err != nil {
		t.Fatal(err)
	}
	if u.Addr != "127.0.0.1:9000" || u.Path != "jobs/1/stdout" {
		t.Fatalf("parsed %+v", u)
	}
	if u.String() != "gass://127.0.0.1:9000/jobs/1/stdout" {
		t.Fatalf("String = %s", u.String())
	}
	for _, bad := range []string{"http://x/y", "gass://", "gass://hostonly", "gass://host:1/"} {
		if _, err := ParseURL(bad); err == nil {
			t.Errorf("ParseURL(%q) should fail", bad)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, c := newPair(t)
	u := s.URLFor("input/exe")
	payload := bytes.Repeat([]byte("condor-g "), 20000) // > 1 chunk
	if err := c.WriteFile(u, payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadAll(u)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(payload))
	}
	size, exists, err := c.Stat(u)
	if err != nil || !exists || size != int64(len(payload)) {
		t.Fatalf("stat: size=%d exists=%v err=%v", size, exists, err)
	}
}

func TestStatMissing(t *testing.T) {
	s, c := newPair(t)
	_, exists, err := c.Stat(s.URLFor("no/such/file"))
	if err != nil || exists {
		t.Fatalf("missing file: exists=%v err=%v", exists, err)
	}
}

func TestReadMissingFileFails(t *testing.T) {
	s, c := newPair(t)
	if _, err := c.ReadAll(s.URLFor("ghost")); err == nil {
		t.Fatal("read of missing file succeeded")
	}
}

func TestAppendStreaming(t *testing.T) {
	s, c := newPair(t)
	u := s.URLFor("jobs/7/stdout")
	var total int64
	for i := 0; i < 5; i++ {
		n, err := c.Append(u, []byte("line\n"))
		if err != nil {
			t.Fatal(err)
		}
		total = n
	}
	if total != 25 {
		t.Fatalf("size after appends = %d, want 25", total)
	}
	// Offset read picks up only the tail — the crash-resume pattern.
	data, eof, err := c.ReadAt(u, 20, 100)
	if err != nil || string(data) != "line\n" || !eof {
		t.Fatalf("tail read = %q eof=%v err=%v", data, eof, err)
	}
}

func TestPathEscapeRejected(t *testing.T) {
	s, c := newPair(t)
	// Plant a file outside the root.
	outside := filepath.Join(filepath.Dir(s.Root()), "secret")
	os.WriteFile(outside, []byte("x"), 0o600)
	for _, escape := range []string{"../secret", "jobs/../../secret", "jobs/gj1/.."} {
		if _, err := c.ReadAll(URL{Addr: s.Addr(), Path: escape}); err == nil || !strings.Contains(err.Error(), "escapes root") {
			t.Fatalf("read of %q: err = %v, want the escape refused", escape, err)
		}
		if err := c.WriteFile(URL{Addr: s.Addr(), Path: escape}, []byte("y")); err == nil {
			t.Fatalf("write to %q allowed", escape)
		}
		if err := s.WriteFile(escape, []byte("y")); err == nil {
			t.Fatalf("local write to %q allowed", escape)
		}
		if _, err := s.ReadFile(escape); err == nil || errors.Is(err, os.ErrNotExist) {
			t.Fatalf("local read of %q: err = %v, want the escape refused", escape, err)
		}
	}
	if got, _ := os.ReadFile(outside); string(got) != "x" {
		t.Fatalf("file outside the root now reads %q", got)
	}
	// Dots inside a segment are a legal name, not an escape.
	for _, legal := range []string{"out..log", "jobs/gj1/std..out", "..hidden", "a/b../c"} {
		u := URL{Addr: s.Addr(), Path: legal}
		if err := c.WriteFile(u, []byte(legal)); err != nil {
			t.Fatalf("write to legal name %q: %v", legal, err)
		}
		if got, err := c.ReadAll(u); err != nil || string(got) != legal {
			t.Fatalf("read of legal name %q = %q, %v", legal, got, err)
		}
	}
}

// TestLocalDoor: the owner of a Server reads and writes the served tree
// without a round trip, and sees exactly what its network clients see.
func TestLocalDoor(t *testing.T) {
	s, c := newPair(t)
	payload := bytes.Repeat([]byte("local-door "), 20000) // several chunks
	if err := s.WriteFile("jobs/gj1/executable", payload); err != nil {
		t.Fatal(err)
	}
	if got, err := c.ReadAll(s.URLFor("jobs/gj1/executable")); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("client read of a local write: %d bytes, %v", len(got), err)
	}
	// Replacing truncates, as Client.WriteFile does.
	if err := s.WriteFile("jobs/gj1/executable", []byte("short")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(s.URLFor("jobs/gj1/stdout"), []byte("streamed")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadFile("jobs/gj1/executable"); err != nil || string(got) != "short" {
		t.Fatalf("local read after replace = %q, %v", got, err)
	}
	if got, err := s.ReadFile("jobs/gj1/stdout"); err != nil || string(got) != "streamed" {
		t.Fatalf("local read of a client append = %q, %v", got, err)
	}
	if _, err := s.ReadFile("jobs/gj1/stderr"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("local read of an unwritten file: %v, want os.ErrNotExist", err)
	}
}

func TestServerRestartNewAddress(t *testing.T) {
	// The §4.2 scenario: the submission machine restarts, the GASS server
	// comes back on a new port, and the job resumes I/O via the URL file.
	root := t.TempDir()
	s1, err := NewServer(root, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(nil, nil)
	defer c.Close()
	u1 := s1.URLFor("out")
	if _, err := c.Append(u1, []byte("before-crash\n")); err != nil {
		t.Fatal(err)
	}
	urlFile := filepath.Join(t.TempDir(), "gass.url")
	if err := WriteURLFile(urlFile, s1.Addr()); err != nil {
		t.Fatal(err)
	}
	s1.Close() // crash

	s2, err := NewServer(root, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Addr() == s1.Addr() {
		t.Skip("OS reused the port; scenario needs a new address")
	}
	if err := WriteURLFile(urlFile, s2.Addr()); err != nil {
		t.Fatal(err)
	}
	addr, err := ReadURLFile(urlFile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(URL{Addr: addr, Path: "out"}, []byte("after-recovery\n")); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadAll(URL{Addr: addr, Path: "out"})
	if err != nil {
		t.Fatal(err)
	}
	want := "before-crash\nafter-recovery\n"
	if string(data) != want {
		t.Fatalf("recovered stream = %q, want %q", data, want)
	}
}

func TestAuthenticatedStaging(t *testing.T) {
	now := time.Now()
	ca, _ := gsi.NewCA("/O=Grid/CN=CA", now, 24*time.Hour)
	s, err := NewServer(t.TempDir(), ServerOptions{Anchor: ca.Certificate()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	anon := NewClient(nil, nil)
	defer anon.Close()
	if err := anon.WriteFile(s.URLFor("f"), []byte("x")); err == nil {
		t.Fatal("anonymous write to authenticated server succeeded")
	}

	user, _ := ca.IssueUser("/O=Grid/CN=u", now, time.Hour)
	proxy, _ := gsi.NewProxy(user, now, 30*time.Minute)
	authed := NewClient(proxy, nil)
	defer authed.Close()
	if err := authed.WriteFile(s.URLFor("f"), []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestURLFileMissing(t *testing.T) {
	if _, err := ReadURLFile(filepath.Join(t.TempDir(), "none")); err == nil {
		t.Fatal("missing URL file read succeeded")
	}
}

func TestEmptyWrite(t *testing.T) {
	s, c := newPair(t)
	u := s.URLFor("empty")
	if err := c.WriteFile(u, nil); err != nil {
		t.Fatal(err)
	}
	size, exists, _ := c.Stat(u)
	if !exists || size != 0 {
		t.Fatalf("empty file: exists=%v size=%d", exists, size)
	}
	data, err := c.ReadAll(u)
	if err != nil || len(data) != 0 {
		t.Fatalf("read empty: %q %v", data, err)
	}
}
