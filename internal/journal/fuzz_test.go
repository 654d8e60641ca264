package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreReplay throws arbitrary bytes at the store's recovery path as a
// journal.log and checks the tamper-evidence invariants hold for every
// input:
//
//   - recovery and the offline auditor never panic;
//   - anything the auditor flags as corrupt refuses to open;
//   - any open refused as corrupt is audit-visible, quarantines the damaged
//     segment, and keeps refusing until the quarantine file is removed.
//
// (The converse — audit-clean implies open succeeds — does NOT hold: the
// auditor proves frame and chain integrity, not that every record decodes
// as a store delta.)
func FuzzStoreReplay(f *testing.F) {
	chained := func(mutate func([]byte) []byte) []byte {
		dir := f.TempDir()
		path := filepath.Join(dir, "seed.log")
		j, err := Open(path, Options{})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			delta, _ := json.Marshal(storeDelta{Key: "k", Value: json.RawMessage(`{"n":1}`)})
			if err := j.AppendRaw(recSet, delta); err != nil {
				f.Fatal(err)
			}
		}
		j.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if mutate != nil {
			raw = mutate(raw)
		}
		return raw
	}
	f.Add([]byte{})
	f.Add(chained(nil))
	f.Add(chained(func(b []byte) []byte { return b[:len(b)-3] })) // torn tail
	f.Add(chained(func(b []byte) []byte { b[12] ^= 0x20; return b }))
	f.Add(chained(func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }))
	f.Add(chained(func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef) }))
	f.Add(chained(func(b []byte) []byte { return b[40:] })) // lost prefix
	rogue := unchainedFrame(recSet, []byte(`{"key":"k","value":{"n":2}}`))
	f.Add(rogue)                                                         // unchained only
	f.Add(chained(func(b []byte) []byte { return append(b, rogue...) })) // unchained suffix
	// Set/patch/del interleavings, intact and with a torn patch tail.
	mixed := func() []byte {
		path := filepath.Join(f.TempDir(), "mixed.log")
		j, err := Open(path, Options{})
		if err != nil {
			f.Fatal(err)
		}
		for _, d := range []struct {
			typ, key, value string
		}{
			{recSet, "a", `{"n":0}`}, {recPatch, "a", `{"n":1}`}, {recPatch, "b", `{"n":1}`},
			{recSet, "b", `{"n":2}`}, {recPatch, "a", `{"n":3}`}, {recDelete, "b", ""},
			{recPatch, "a", `{"log":["x"]}`},
		} {
			var value json.RawMessage
			if d.value != "" {
				value = json.RawMessage(d.value)
			}
			delta, _ := frameDelta(d.key, value)
			if err := j.AppendRaw(d.typ, delta); err != nil {
				f.Fatal(err)
			}
		}
		j.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}()
	f.Add(mixed)
	f.Add(invalidValueJournal(f))                                   // a good frame around a value that is not JSON
	f.Add(mixed[:len(mixed)-5])                                     // torn patch tail
	f.Add(append(append([]byte(nil), mixed...), mixed[:30]...))     // replayed prefix as a torn tail
	f.Add(append(mixed[:len(mixed)/2:len(mixed)/2], mixed[40:]...)) // spliced middle
	// Record bodies, for the in-place reader: every shape the store writes
	// (escaped keys and types, an empty prev, a delete with no value), and
	// near misses it must leave to encoding/json.
	framed, foreign := readerCases()
	for _, body := range append(framed, foreign...) {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Whatever the reader accepts, as a body or as any intact frame's
		// body, it decodes as encoding/json does.
		readerAgrees(t, raw)
		for rest := raw; len(rest) >= 8; {
			size := binary.LittleEndian.Uint32(rest[0:4])
			if uint64(size) > uint64(len(rest)-8) {
				break
			}
			readerAgrees(t, rest[8:8+size])
			rest = rest[8+size:]
		}

		dir := t.TempDir()
		jpath := filepath.Join(dir, storeJournalFile)
		if err := os.WriteFile(jpath, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		_, verr := VerifyDir(dir)

		s, oerr := OpenStoreOptions(dir, StoreOptions{})
		if oerr == nil {
			s.Close()
		}
		if verr != nil && oerr == nil {
			t.Fatalf("auditor flagged corruption (%v) but recovery opened anyway", verr)
		}
		var ce *CorruptionError
		if errors.As(oerr, &ce) {
			if verr == nil {
				t.Fatalf("recovery refused as corrupt (%v) but the auditor saw a clean history", oerr)
			}
			if _, err := os.Stat(jpath + quarantineSuffix); err != nil {
				t.Fatalf("corrupt open did not quarantine the segment: %v", err)
			}
			if _, err := OpenStoreOptions(dir, StoreOptions{}); err == nil {
				t.Fatal("second open over a quarantine succeeded")
			}
		}
	})
}

// invalidValueJournal is a chained journal whose middle record's value is
// not JSON: its CRC and chain link were computed around those bytes, so
// only readDelta's json.Valid tells it from a record the store wrote.
func invalidValueJournal(tb testing.TB) []byte {
	path := filepath.Join(tb.TempDir(), "invalid.log")
	j, err := Open(path, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, v := range []string{`{"n":1}`, `{"n":}`, `{"n":3}`} {
		if err := j.AppendRaw(recSet, json.RawMessage(`{"key":"k","value":`+v+`}`)); err != nil {
			tb.Fatal(err)
		}
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestInvalidValueRefused: a value that is not one JSON document is refused
// at open as corruption, even in a frame whose CRC and chain verify. Replay
// copies values raw into snapshots and the standby stream, so one such
// value would make a whole partition's snapshot unreadable.
func TestInvalidValueRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storeJournalFile), invalidValueJournal(t), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := OpenStore(dir)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("open over an invalid value = %v; want a *CorruptionError", err)
	}
}
