package journal

import (
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

	f.Fuzz(func(t *testing.T, raw []byte) {
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
