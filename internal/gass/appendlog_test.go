package gass

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// record frames one append the way the log's format says, independently of
// the code that writes it.
func record(path, data string) []byte {
	b := make([]byte, 10, 10+len(path)+len(data))
	binary.LittleEndian.PutUint16(b[4:], uint16(len(path)))
	binary.LittleEndian.PutUint32(b[6:], uint32(len(data)))
	b = append(append(b, path...), data...)
	binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:], crc32.MakeTable(crc32.Castagnoli)))
	return b
}

// serverOnLog starts a Server on a fresh root whose append log holds log.
func serverOnLog(t *testing.T, log []byte) (*Server, string) {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, appendLogName), log, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(root, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, root
}

func logSize(t *testing.T, root string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(root, appendLogName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestAppendLogDiskFormat: what opening a log keeps of its tail, and which
// paths the log accepts and serves.
func TestAppendLogDiskFormat(t *testing.T) {
	first, second := record("out/a", "first\n"), record("out/a", "second\n")

	t.Run("last record cut at every byte", func(t *testing.T) {
		for cut := 0; cut < len(second); cut++ {
			log := append(slices.Clone(first), second[:cut]...)
			s, root := serverOnLog(t, log)
			if got, err := s.ReadFile("out/a"); err != nil || string(got) != "first\n" {
				t.Fatalf("cut at %d: out/a = %q, %v; want the first record alone", cut, got, err)
			}
			if n := logSize(t, root); n != int64(len(first)) {
				t.Fatalf("cut at %d: log is %d bytes after open, want the torn tail cut to %d", cut, n, len(first))
			}
			// The next append lands where the torn record began.
			if n, err := s.appendTo("out/a", []byte("third\n")); err != nil || n != int64(len("first\nthird\n")) {
				t.Fatalf("cut at %d: append after open = %d, %v", cut, n, err)
			}
			s.Close()
		}
	})

	t.Run("flipped byte in the last record's checksum", func(t *testing.T) {
		bad := slices.Clone(second)
		bad[1] ^= 0x40
		s, root := serverOnLog(t, append(slices.Clone(first), bad...))
		if got, err := s.ReadFile("out/a"); err != nil || string(got) != "first\n" {
			t.Fatalf("out/a = %q, %v; want the checksum-failed record dropped", got, err)
		}
		if n := logSize(t, root); n != int64(len(first)) {
			t.Fatalf("log is %d bytes after open, want %d", n, len(first))
		}
	})

	t.Run("zero-length append", func(t *testing.T) {
		s, root := serverOnLog(t, nil)
		c := NewClient(nil, nil)
		defer c.Close()
		u := s.URLFor("out/empty")
		if n, err := c.Append(u, nil); err != nil || n != 0 {
			t.Fatalf("empty append = %d, %v", n, err)
		}
		if size, exists, err := c.Stat(u); err != nil || !exists || size != 0 {
			t.Fatalf("stat after an empty append: size=%d exists=%v err=%v", size, exists, err)
		}
		s.Close()
		s2, err := NewServer(root, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if got, err := s2.ReadFile("out/empty"); err != nil || len(got) != 0 {
			t.Fatalf("empty stream after reopen = %q, %v; want it to exist, empty", got, err)
		}
	})

	t.Run("dot-dot path", func(t *testing.T) {
		s, root := serverOnLog(t, append(slices.Clone(first), record("../escape", "x")...))
		if n := logSize(t, root); n != int64(len(first)) {
			t.Fatalf("a record naming ../escape was kept: log is %d bytes, want %d", n, len(first))
		}
		c := NewClient(nil, nil)
		defer c.Close()
		if _, err := c.Append(s.URLFor("out/../../escape"), []byte("x")); err == nil || !strings.Contains(err.Error(), "escapes root") {
			t.Fatalf("append to a .. path: %v, want the escape refused", err)
		}
		if n := logSize(t, root); n != int64(len(first)) {
			t.Fatalf("a refused append grew the log to %d bytes", n)
		}
	})

	t.Run("the log's own name", func(t *testing.T) {
		s, _ := serverOnLog(t, first)
		c := NewClient(nil, nil)
		defer c.Close()
		for _, p := range []string{appendLogName, "./" + appendLogName, "/" + appendLogName, "out/../" + appendLogName} {
			u := s.URLFor(p)
			if _, err := c.ReadAll(u); err == nil {
				t.Errorf("gass.read of %q served the log", p)
			}
			if _, exists, err := c.Stat(u); err == nil || exists {
				t.Errorf("gass.stat of %q: exists=%v err=%v, want refused", p, exists, err)
			}
			if _, err := c.Append(u, []byte("x")); err == nil {
				t.Errorf("gass.append to %q accepted", p)
			}
			if err := c.WriteFile(u, []byte("x")); err == nil {
				t.Errorf("gass.write to %q accepted", p)
			}
			if _, err := s.ReadFile(p); err == nil || errors.Is(err, os.ErrNotExist) {
				t.Errorf("local read of %q: %v, want refused", p, err)
			}
		}
		if got, err := s.ReadFile("out/a"); err != nil || string(got) != "first\n" {
			t.Fatalf("out/a = %q, %v after the refusals", got, err)
		}
	})

	t.Run("a stream is not rewritten in place", func(t *testing.T) {
		s, _ := serverOnLog(t, first)
		c := NewClient(nil, nil)
		defer c.Close()
		if err := c.WriteFile(s.URLFor("out/a"), []byte("replaced")); err == nil || !strings.Contains(err.Error(), "append stream") {
			t.Fatalf("gass.write over a stream: %v, want refused", err)
		}
	})

	t.Run("a file is not appended to", func(t *testing.T) {
		s, _ := serverOnLog(t, first)
		c := NewClient(nil, nil)
		defer c.Close()
		u := s.URLFor("out/file")
		if err := c.WriteFile(u, []byte("written\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Append(u, []byte("appended\n")); err == nil || !strings.Contains(err.Error(), "not an append stream") {
			t.Fatalf("gass.append to a file: %v, want refused", err)
		}
		if got, err := s.ReadFile("out/file"); err != nil || string(got) != "written\n" {
			t.Fatalf("out/file = %q, %v after the refusal", got, err)
		}
	})
}

// TestAppendCreatesNoFile: appends to many paths leave the root holding
// only the log, and every stream reads back whole after a restart.
func TestAppendCreatesNoFile(t *testing.T) {
	root := t.TempDir()
	s, err := NewServer(root, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(nil, nil)
	defer c.Close()
	want := map[string]string{}
	for i := 0; i < 3; i++ {
		for _, p := range []string{"out/gj1.stdout", "out/gj1.stderr", "out/gj2.stdout", "jobs/gj3/stdout"} {
			line := p + " line " + itoa(i) + "\n"
			if _, err := c.Append(s.URLFor(p), []byte(line)); err != nil {
				t.Fatal(err)
			}
			want[p] += line
		}
	}
	ents, _ := os.ReadDir(root)
	if len(ents) != 1 || ents[0].Name() != appendLogName {
		t.Fatalf("root holds %v, want the append log alone", ents)
	}
	s.Close()
	s2, err := NewServer(root, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for p, w := range want {
		if got, err := s2.ReadFile(p); err != nil || string(got) != w {
			t.Fatalf("%s after restart = %q, %v; want %q", p, got, err, w)
		}
	}
}

// logStreams reads every stream of l: path → logged bytes.
func logStreams(t *testing.T, l *appendLog) map[string]string {
	t.Helper()
	out := make(map[string]string, len(l.streams))
	for k, st := range l.streams {
		b := make([]byte, st.size)
		if err := l.readAt(st.extents, b, 0); err != nil {
			t.Fatalf("read stream %q: %v", k, err)
		}
		out[k] = string(b)
	}
	return out
}

// FuzzAppendLog: arbitrary bytes as a log file open without a panic, index
// only extents inside the file, reopen to the same streams, and take an
// append that reads back — before and after another reopen.
func FuzzAppendLog(f *testing.F) {
	a, b := record("out/gj1.stdout", "hello\n"), record("out/gj1.stderr", "")
	f.Add([]byte{})
	f.Add(a)
	f.Add(append(slices.Clone(a), b...))
	f.Add(append(slices.Clone(a), record("out/gj1.stdout", "world\n")[:13]...))
	f.Add(append(slices.Clone(a), record("../x", "y")...))
	f.Add(append(slices.Clone(a), record(appendLogName, "y")...))
	f.Add(append(slices.Clone(b), bytes.Repeat([]byte{0xff}, 12)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), appendLogName)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		l, err := openAppendLog(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if l.end != fi.Size() {
			t.Fatalf("log ends at %d, file is %d bytes", l.end, fi.Size())
		}
		for k, st := range l.streams {
			var n int64
			for _, e := range st.extents {
				if e.off < recHeader || e.n <= 0 || e.off+e.n > fi.Size() {
					t.Fatalf("stream %q indexes extent %+v outside the %d-byte file", k, e, fi.Size())
				}
				n += e.n
			}
			if n != st.size {
				t.Fatalf("stream %q: extents hold %d bytes, size says %d", k, n, st.size)
			}
		}
		streams := logStreams(t, l)
		l.f.Close()

		l2, err := openAppendLog(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := logStreams(t, l2); !maps.Equal(got, streams) {
			t.Fatalf("reopen changed the streams: %q, was %q", got, streams)
		}
		st := l2.streams["out/after"]
		if st == nil {
			st = &stream{}
		}
		if err := l2.append("out/after", st, []byte("tail")); err != nil {
			t.Fatal(err)
		}
		streams["out/after"] += "tail"
		if got := logStreams(t, l2); !maps.Equal(got, streams) {
			t.Fatalf("after an append: %q, want %q", got, streams)
		}
		l2.f.Close()
		l3, err := openAppendLog(path)
		if err != nil {
			t.Fatalf("third open: %v", err)
		}
		defer l3.f.Close()
		if got := logStreams(t, l3); !maps.Equal(got, streams) {
			t.Fatalf("the append did not survive a reopen: %q, want %q", got, streams)
		}
	})
}

// TestConcurrentAppends: appends from many clients to their own paths and
// to one shared path, with readers reading throughout, each land whole:
// every own stream reads back in order, and the shared one holds every
// line once, none torn.
func TestConcurrentAppends(t *testing.T) {
	s, _ := newPair(t)
	const writers, lines = 8, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(nil, nil)
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.ReadFile("out/shared"); err != nil && !errors.Is(err, os.ErrNotExist) {
					t.Error(err)
					return
				}
				if _, _, err := c.ReadAt(s.URLFor("out/w0"), 3, 17); err != nil && !strings.Contains(err.Error(), "no such file") {
					t.Error(err)
					return
				}
			}
		}()
	}
	var writes sync.WaitGroup
	for w := 0; w < writers; w++ {
		writes.Add(1)
		go func(w int) {
			defer writes.Done()
			c := NewClient(nil, nil)
			defer c.Close()
			for i := 0; i < lines; i++ {
				line := []byte("w" + itoa(w) + " line " + itoa(i) + "\n")
				for _, p := range []string{"out/w" + itoa(w), "out/shared"} {
					if _, err := c.Append(s.URLFor(p), line); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	writes.Wait()
	close(stop)
	wg.Wait()
	seen := map[string]int{}
	shared, err := s.ReadFile("out/shared")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.SplitAfter(string(shared), "\n") {
		if l != "" {
			seen[l]++
		}
	}
	for w := 0; w < writers; w++ {
		var want strings.Builder
		for i := 0; i < lines; i++ {
			line := "w" + itoa(w) + " line " + itoa(i) + "\n"
			want.WriteString(line)
			if seen[line] != 1 {
				t.Fatalf("the shared stream holds %q %d times", line, seen[line])
			}
		}
		if got, err := s.ReadFile("out/w" + itoa(w)); err != nil || string(got) != want.String() {
			t.Fatalf("out/w%d = %d bytes, %v; want %d bytes in order", w, len(got), err, want.Len())
		}
	}
	if len(seen) != writers*lines {
		t.Fatalf("the shared stream holds %d distinct lines, want %d", len(seen), writers*lines)
	}
}
