package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// entryDump is a store's key space as ForEachEntry hands it over.
type entryDump map[string][]string // key -> image, patches...

func entriesOf(t *testing.T, s *Store) entryDump {
	t.Helper()
	out := entryDump{}
	if err := s.ForEachEntry(func(key string, image json.RawMessage, patches []json.RawMessage) error {
		row := []string{string(image)}
		for _, p := range patches {
			row = append(row, string(p))
		}
		out[key] = row
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStorePatchReplay: patches replay onto their key in order, unfolded; a
// set drops them, a delete drops the key; snapshots (version 3) carry them
// through compaction.
func TestStorePatchReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Put("a", map[string]int{"n": 0}))
	for i := 1; i <= 3; i++ {
		must(s.Patch("a", json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)), i == 3))
	}
	must(s.Put("b", 1))
	must(s.Patch("b", json.RawMessage(`{"x":1}`), false))
	must(s.Put("b", 2)) // drops b's patch
	must(s.Put("c", 3))
	must(s.Patch("c", json.RawMessage(`{"y":1}`), true))
	must(s.Delete("c"))
	want := entryDump{
		"a": {`{"n":0}`, `{"n":1}`, `{"n":2}`, `{"n":3}`},
		"b": {`2`},
	}
	if got := entriesOf(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("live entries %v, want %v", got, want)
	}
	must(s.Close())

	s, err = OpenStore(dir)
	must(err)
	if got := entriesOf(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed entries %v, want %v", got, want)
	}
	// ForEach, for stores that never patch, sees the images.
	n := 0
	must(s.ForEach(func(string, json.RawMessage) error { n++; return nil }))
	if n != 2 {
		t.Fatalf("ForEach visited %d keys, want 2", n)
	}
	must(s.Compact())
	must(s.Patch("a", json.RawMessage(`{"n":4}`), true))
	must(s.Close())
	raw, err := os.ReadFile(filepath.Join(dir, storeSnapshotFile))
	must(err)
	var snap storeSnapshot
	must(json.Unmarshal(raw, &snap))
	if snap.V != 3 || len(snap.Patches["a"]) != 3 {
		t.Fatalf("snapshot v%d with patches %v, want v3 carrying a's 3 patches", snap.V, snap.Patches)
	}
	s, err = OpenStore(dir)
	must(err)
	defer s.Close()
	want["a"] = append(want["a"], `{"n":4}`)
	if got := entriesOf(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("entries after compaction %v, want %v", got, want)
	}
	if rep, err := VerifyDir(dir); err != nil || !rep.OK() {
		t.Fatalf("patched store fails verification: %v", err)
	}
}

// TestStoreLazyWriteRidesNextCommit: a lazy write reaches the file only with
// the next write that waits, or a Flush — never on its own.
func TestStoreLazyWriteRidesNextCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreOptions(dir, StoreOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	size := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, storeJournalFile))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if err := s.Put("k", 1); err != nil {
		t.Fatal(err)
	}
	base := size()
	if err := s.Patch("k", json.RawMessage(`{"lazy":1}`), false); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRaw("j", json.RawMessage(`{"lazy":2}`), false); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != base {
		t.Fatalf("lazy writes reached the file on their own (%d -> %d bytes)", base, got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed := size()
	if flushed <= base {
		t.Fatal("Flush did not write the lazy records")
	}
	if err := s.Patch("k", json.RawMessage(`{"lazy":3}`), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Patch("k", json.RawMessage(`{"wait":4}`), true); err != nil {
		t.Fatal(err)
	}
	if got := size(); got <= flushed {
		t.Fatal("a must-wait write did not carry the lazy one before it")
	}
	if err := s.Flush(); err != nil { // nothing pending: returns at once
		t.Fatal(err)
	}
}

// TestStreamReplicatesPatches: a follower bootstrapped from a snapshot with
// patches, then fed patch records from the stream, holds the primary's key
// space unfolded, and keeps it across its own restart.
func TestStreamReplicatesPatches(t *testing.T) {
	p, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Put("a", 0)
	p.Patch("a", json.RawMessage(`{"n":1}`), true)
	p.Patch("orphan", json.RawMessage(`{"n":1}`), true) // patches without an image
	fdir := t.TempDir()
	f, err := OpenStore(fdir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InstallSnapshot(p.SnapshotDump()); err != nil {
		t.Fatal(err)
	}
	p.Patch("a", json.RawMessage(`{"n":2}`), false)
	p.Put("b", 1)
	p.Patch("b", json.RawMessage(`{"n":3}`), false)
	pump(t, p, f)
	if want, got := entriesOf(t, p), entriesOf(t, f); !reflect.DeepEqual(want, got) {
		t.Fatalf("follower entries %v, want %v", got, want)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := OpenStore(fdir)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if want, got := entriesOf(t, p), entriesOf(t, f2); !reflect.DeepEqual(want, got) {
		t.Fatalf("follower entries after restart %v, want %v", got, want)
	}
}

// TestFrameDeltaMatchesMarshal: framing a delta by hand writes exactly the
// bytes encoding/json wrote for it, so the chain hashes what it always did.
func TestFrameDeltaMatchesMarshal(t *testing.T) {
	for _, key := range []string{"gj1", "spool/objects/ab", `quo"te`, "tab\there", "<html>&", "ünï", ""} {
		for _, value := range []json.RawMessage{nil, json.RawMessage(`{"a":[1,2]}`), json.RawMessage(`"s"`)} {
			want, err := json.Marshal(storeDelta{Key: key, Value: value})
			if err != nil {
				t.Fatal(err)
			}
			got, v := frameDelta(key, value)
			if string(got) != string(want) || string(v) != string(value) {
				t.Fatalf("frameDelta(%q, %s) = %s (value %s), want %s", key, value, got, v, want)
			}
		}
	}
}
