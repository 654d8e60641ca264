package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// readerAgrees checks readRecord against encoding/json on one record body:
// whenever the reader accepts the body, json.Unmarshal must accept it too
// and decode the same Record, and the same storeDelta from its data. It
// reports whether the reader accepted the body.
func readerAgrees(t testing.TB, body []byte) bool {
	t.Helper()
	rec, d, ok := readRecord(body)
	if !ok {
		return false
	}
	var want Record
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("reader accepted %q, which encoding/json refuses: %v", body, err)
	}
	var wantD storeDelta
	if err := json.Unmarshal(want.Data, &wantD); err != nil {
		t.Fatalf("reader accepted the data of %q, which encoding/json refuses: %v", body, err)
	}
	if !reflect.DeepEqual(rec, want) || !reflect.DeepEqual(d, wantD) {
		t.Fatalf("reader decoded %q as %+v %+v, encoding/json as %+v %+v", body, rec, d, want, wantD)
	}
	return true
}

// readerCases are record bodies in frameRecord's shape (which the reader
// must take) and near misses (which it must leave to encoding/json).
func readerCases() (framed, foreign [][]byte) {
	hash := strings.Repeat("ab", 32)
	for _, key := range []string{"gj1", `quo"te`, "tab\there", "<html>&", "ünï", "", "bad\xffutf8", "nul\x00"} {
		for _, typ := range []string{recSet, recPatch, recDelete, `quo"te`, "ünï"} {
			for _, value := range []json.RawMessage{nil, json.RawMessage(`{"a":[1,2]}`), json.RawMessage(`"s"`), json.RawMessage(`null`)} {
				for _, prev := range []string{"", hash} {
					delta, _ := frameDelta(key, value)
					framed = append(framed, frameRecord(typ, delta, 7, prev)[8:])
				}
			}
		}
	}
	for _, body := range []string{
		`{"seq":1,"type":"set","prev":"","data":{"key":"k","value":1}}`,  // reordered envelope
		`{"type":"set","seq":1,"prev":"","data":{"value":1,"key":"k"}}`,  // reordered delta
		`{"type": "set","seq":1,"prev":"","data":{"key":"k","value":1}}`, // whitespace
		`{"type":"set","seq":1,"prev":"","data":{"key":"k","value": 1}}`,
		`{"type":"set","seq":1,"prev":"","data":{"key":"k","value":1,"x":2}}`, // an extra member
		`{"type":"set","seq":1,"prev":"","data":{"key":"k","value":{"a":}}}`,  // a broken value
		`{"type":"set","seq":01,"prev":"","data":{"key":"k","value":1}}`,      // a leading zero
		`{"type":"set","seq":18446744073709551616,"prev":"","data":{"key":"k","value":1}}`,
		`{"type":"set","seq":-1,"prev":"","data":{"key":"k","value":1}}`,
		`{"type":"set","seq":1,"prev":"","data":null}`,
		`{"type":"set","seq":1,"prev":"","data":{"key":"k","value":1}},"type":"del"}`,
		`{"type":"set","data":{"key":"k","value":1}}`,                  // unchained
		`{"type":"set","seq":1,"prev":"","data":{"key":"k","value":1}`, // torn
	} {
		foreign = append(foreign, []byte(body))
	}
	return framed, foreign
}

// TestReadRecordMatchesUnmarshal: the in-place reader takes every record
// body the store writes — escaped keys and types, an empty prev, a delete
// without a value — and decodes it exactly as encoding/json does; bodies in
// any other shape are left to encoding/json.
func TestReadRecordMatchesUnmarshal(t *testing.T) {
	framed, foreign := readerCases()
	for _, body := range framed {
		if !readerAgrees(t, body) {
			t.Fatalf("reader refused %q, a body frameRecord writes", body)
		}
	}
	for _, body := range foreign {
		if readerAgrees(t, body) {
			t.Fatalf("reader took %q, a body frameRecord does not write", body)
		}
	}
}

// TestOpenPartitionSetCorruptPartition: partitions open side by side, but a
// damaged one fails the set exactly as it would alone: the open returns its
// *CorruptionError, quarantines that partition only, and closes every
// store it did open.
func TestOpenPartitionSetCorruptPartition(t *testing.T) {
	dir := t.TempDir()
	ps, err := OpenPartitionSet(dir, 3, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 3; idx++ {
		st, err := ps.Partition(idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := st.Put(strings.Repeat("k", i+1), payload{N: i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "p1", storeJournalFile)
	frames := readFrames(t, jpath)
	frames[1][8+5] ^= 0x40 // intact records follow: not a torn tail
	writeFrames(t, jpath, frames)

	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(entries)
	}
	before := fds()
	_, err = OpenPartitionSet(dir, 3, StoreOptions{})
	var ce *CorruptionError
	if !errors.As(err, &ce) || ce.Path != jpath {
		t.Fatalf("open = %v, want the *CorruptionError of %s", err, jpath)
	}
	for idx, want := range []bool{false, true, false} {
		q := quarantinedFiles(filepath.Join(dir, fmt.Sprintf("p%d", idx)))
		if got := len(q) > 0; got != want {
			t.Fatalf("partition %d quarantined = %v (%v), want %v", idx, got, q, want)
		}
	}
	if after := fds(); after != before {
		t.Fatalf("%d open files after the refused open, %d before: a store was left open", after, before)
	}
}
