package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// TestBigFrameBufferHeldByItsHandler: a server reads big request frames
// into buffers it reuses, but never one whose handler is still running.
// One handler is held with its blob while a second big frame arrives on
// the same connection and is served; the held handler's bytes must be its
// own throughout.
func TestBigFrameBufferHeldByItsHandler(t *testing.T) {
	s, _ := newEchoServer(t, ServerConfig{Name: "svc"})
	entered := make(chan struct{})
	release := make(chan struct{})
	var firstIntact atomic.Bool
	first, second := testBlob(bigFrame+100), bytes.Repeat([]byte{0x5a}, bigFrame+100)
	s.HandleBlob("hold", func(_ string, _ json.RawMessage, blob []byte) (any, []byte, error) {
		if bytes.Equal(blob, first) {
			close(entered)
			<-release
			firstIntact.Store(bytes.Equal(blob, first))
		}
		return blobResp{N: len(blob)}, nil, nil
	})
	c := Dial(s.Addr(), ClientConfig{ServerName: "svc", Codec: CodecBinary})
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.CallBlob("hold", struct{}{}, first, nil)
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first handler never ran")
	}
	// Two more big frames while the first handler holds its buffer: the
	// second one is served from a buffer the first reply handed back.
	for i := 0; i < 2; i++ {
		var resp blobResp
		if _, err := c.CallBlob("hold", struct{}{}, second, &resp); err != nil || resp.N != len(second) {
			t.Fatalf("second frame: n=%d err=%v", resp.N, err)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !firstIntact.Load() {
		t.Fatal("the held handler's blob was overwritten by a later frame")
	}
	s.bufs.mu.Lock()
	free := len(s.bufs.free)
	s.bufs.mu.Unlock()
	if free == 0 {
		t.Fatal("no frame buffer came back to the free list")
	}
}

// TestCallSection: a request blob sent from a file section arrives as the
// section's bytes, attempt after attempt; a section the file does not hold
// fails with ErrShortSection before anything is sent, and the call is not
// retried.
func TestCallSection(t *testing.T) {
	faults := &Faults{}
	s, count := newBlobServer(t, ServerConfig{Name: "svc", Faults: faults})
	data := testBlob(300 << 10)
	path := filepath.Join(t.TempDir(), "object")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The first attempt's reply is lost, so the section is sent twice.
	var drops atomic.Int64
	faults.Set(nil, func(string) bool { return drops.Add(1) == 1 })
	c := Dial(s.Addr(), ClientConfig{ServerName: "svc", Timeout: 150 * time.Millisecond, RetryBackoff: 10 * time.Millisecond})
	defer c.Close()

	sec := Section{File: f, Off: 1000, N: 200 << 10}
	var resp blobResp
	out, err := c.CallSection("mirror", struct{}{}, sec, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if want := data[sec.Off : sec.Off+sec.N]; resp.N != len(want) || !bytes.Equal(out, reversed(want)) {
		t.Fatalf("handler saw %d bytes, reply intact = %v", resp.N, bytes.Equal(out, reversed(want)))
	}
	if drops.Load() < 2 {
		t.Fatal("the reply was not lost once: the retry went untested")
	}

	runs := count.Load()
	_, err = c.CallSection("mirror", struct{}{}, Section{File: f, Off: 200 << 10, N: 200 << 10}, nil)
	if !errors.Is(err, ErrShortSection) || IsRemote(err) {
		t.Fatalf("short section: err %v, want ErrShortSection", err)
	}
	if count.Load() != runs {
		t.Fatal("a short section reached the handler")
	}
}
