package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func TestAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append("p", payload{N: i, S: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []payload
	n, err := Replay(path, func(rec Record) error {
		if rec.Type != "p" {
			t.Fatalf("rec type %q", rec.Type)
		}
		var p payload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		got = append(got, p)
		return nil
	})
	if err != nil || n != 10 {
		t.Fatalf("replay n=%d err=%v", n, err)
	}
	for i, p := range got {
		if p.N != i {
			t.Fatalf("record %d has N=%d", i, p.N)
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	n, err := Replay(filepath.Join(t.TempDir(), "nope.log"), func(Record) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("missing file: n=%d err=%v", n, err)
	}
}

func TestReplayTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _ := Open(path, Options{})
	for i := 0; i < 5; i++ {
		if err := j.Append("p", payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Simulate a crash mid-write: append garbage that looks like a header.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{200, 1, 0, 0, 9, 9, 9}) // 7 bytes: torn 8-byte header
	f.Close()
	n, err := Replay(path, func(Record) error { return nil })
	if err != nil || n != 5 {
		t.Fatalf("torn tail: n=%d err=%v, want 5 intact records", n, err)
	}
}

func TestReplayCorruptCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _ := Open(path, Options{})
	j.Append("p", payload{N: 1})
	j.Append("p", payload{N: 2})
	j.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF // flip a bit in the last record's payload
	os.WriteFile(path, data, 0o600)
	n, err := Replay(path, func(Record) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("corrupt record: n=%d err=%v, want 1", n, err)
	}
}

func TestClosedJournalAppendFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _ := Open(path, Options{})
	j.Close()
	if err := j.Append("p", payload{}); err == nil {
		t.Fatal("append after close should fail")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close should be nil, got %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := WriteFileAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "two" {
		t.Fatalf("content = %q", data)
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("leftover temp files: %v", entries)
	}
}

// Property: any sequence of appended payloads replays identically.
func TestQuickJournalRoundTrip(t *testing.T) {
	f := func(values []string) bool {
		path := filepath.Join(t.TempDir(), "q.log")
		j, err := Open(path, Options{})
		if err != nil {
			return false
		}
		for _, v := range values {
			if err := j.Append("s", v); err != nil {
				return false
			}
		}
		j.Close()
		var got []string
		_, err = Replay(path, func(rec Record) error {
			var s string
			if err := json.Unmarshal(rec.Data, &s); err != nil {
				return err
			}
			got = append(got, s)
			return nil
		})
		if err != nil || len(got) != len(values) {
			return false
		}
		for i := range got {
			if got[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
