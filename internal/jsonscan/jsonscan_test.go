package jsonscan

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestScalarsMatchUnmarshal: whatever String and Uint accept decodes as
// encoding/json decodes the bytes up to the index they report.
func TestScalarsMatchUnmarshal(t *testing.T) {
	for _, in := range []string{`"plain"`, `"quo\"te"`, `"tab\tx"`, `"<html>"`, `"ünï"`, "\"bad\xffutf8\"", `""`, `"open`, `"ctl` + "\x01" + `"`} {
		s, end, ok := String([]byte(in), 0)
		var want string
		err := json.Unmarshal([]byte(in), &want)
		if ok != (err == nil) || ok && (s != want || end != len(in)) {
			t.Fatalf("String(%q) = %q, %d, %v; encoding/json %q, %v", in, s, end, ok, want, err)
		}
	}
	for _, in := range []string{"0", "7", "18446744073709551615", "18446744073709551616", "01", "-1", "1.5", ""} {
		n, end, ok := Uint([]byte(in), 0)
		var want uint64
		err := json.Unmarshal([]byte(in[:end]), &want)
		if ok && (err != nil || n != want) || !ok && (in == "7" || in == "18446744073709551615") {
			t.Fatalf("Uint(%q) = %d, %d, %v; encoding/json on %q: %d, %v", in, n, end, ok, in[:end], want, err)
		}
	}
}

// TestMembersMatchesUnmarshal: Members hands over each member of a valid
// object exactly as encoding/json splits it, and refuses what is not an
// object.
func TestMembersMatchesUnmarshal(t *testing.T) {
	for _, obj := range []string{
		`{}`, ` { } `,
		`{"a":1,"b":"x","c":[1,{"d":"}"}],"e":{"f":[]},"g":true,"h":null}`,
		`{ "a" : -1.5e3 , "b\"q" : "\\" , "c":[ ] }`,
		`{"n":12}`, `{"s":"a,b:c}]"}`, `{"u":"ü"}`,
	} {
		var want map[string]json.RawMessage
		if err := json.Unmarshal([]byte(obj), &want); err != nil {
			t.Fatal(err)
		}
		got := map[string]json.RawMessage{}
		if err := Members([]byte(obj), func(name string, val []byte) error {
			got[name] = val
			return nil
		}); err != nil {
			t.Fatalf("Members(%s): %v", obj, err)
		}
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("Members(%s) = %q, encoding/json %q", obj, got, want)
		}
	}
	for _, bad := range []string{``, `[]`, `"s"`, `{`, `{"a"}`, `{"a":}`, `{"a":1`, `{"a":1 "b":2}`, `{"a":[1}`, `{a:1}`} {
		if err := Members([]byte(bad), func(string, []byte) error { return nil }); err == nil {
			t.Fatalf("Members(%s) accepted it", bad)
		}
	}
}

// FuzzMembers: on any bytes Members returns without panicking, and on a
// valid JSON object it hands over the members encoding/json decodes (the
// last of a repeated name winning, as there).
func FuzzMembers(f *testing.F) {
	for _, seed := range []string{`{}`, `{"a":1,"b":[{"c":"}"}]}`, `{"a":"\"","b":-0.5e+2,"c":null}`, `{"a":`, `[1]`, ` {"x" : { } } `} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got := map[string]json.RawMessage{}
		err := Members(raw, func(name string, val []byte) error {
			got[name] = val
			return nil
		})
		var want map[string]json.RawMessage
		if json.Unmarshal(raw, &want) != nil || want == nil {
			return // not an object: Members may refuse it or not
		}
		if err != nil {
			t.Fatalf("Members refused the object %q: %v", raw, err)
		}
		if len(got) != len(want) {
			t.Fatalf("Members(%q) = %q, encoding/json %q", raw, got, want)
		}
		for k, v := range want {
			if string(got[k]) != string(v) {
				t.Fatalf("Members(%q) = %q, encoding/json %q", raw, got, want)
			}
		}
	})
}
