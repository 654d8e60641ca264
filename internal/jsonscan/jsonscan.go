// Package jsonscan reads JSON in place, in one pass, for the hot paths that
// read back what this repository wrote: journal replay and job-record
// folding. Lit, String and Uint take the pieces of a document whose shape
// the caller knows, and report false for anything else, which the caller
// then decodes through encoding/json; Members splits an object already
// known to be valid into its members. Wherever they accept, their results
// are what encoding/json gives.
package jsonscan

import (
	"encoding/json"
	"errors"
)

// Lit reports whether b holds lit at i, and the index after it.
func Lit(b []byte, i int, lit string) (int, bool) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}

// String decodes the JSON string that starts at b[i] and returns the index
// after it. A string of printable ASCII without escapes is taken as it
// stands; any other goes through encoding/json, which unescapes it and
// replaces invalid UTF-8 as it always does.
func String(b []byte, i int) (string, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return "", i, false
	}
	plain := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			if plain {
				return string(b[i+1 : j]), j + 1, true
			}
			var s string
			if json.Unmarshal(b[i:j+1], &s) != nil {
				return "", i, false
			}
			return s, j + 1, true
		case c == '\\':
			plain = false
			j++ // the escaped byte cannot end the string
		case c < 0x20 || c > 0x7e:
			plain = false
		}
	}
	return "", i, false
}

// Uint decodes the JSON number that starts at b[i] when it is a plain
// unsigned integer that fits a uint64: no sign, fraction, exponent or
// leading zero.
func Uint(b []byte, i int) (uint64, int, bool) {
	j := i
	var n uint64
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		digit := uint64(b[j] - '0')
		if n > (1<<64-1-digit)/10 {
			return 0, i, false
		}
		n = n*10 + digit
		j++
	}
	if j == i || (b[i] == '0' && j > i+1) {
		return 0, i, false
	}
	return n, j, true
}

// Space reports whether c is JSON insignificant whitespace.
func Space(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

var errNotObject = errors.New("jsonscan: not a JSON object")

// Members calls fn with the name and the raw value of each member of the
// JSON object obj, in order, without decoding or validating the values:
// it is for documents already known to be valid JSON, and fn decodes what
// it needs. Bytes that are not an object are an error.
func Members(obj []byte, fn func(name string, val []byte) error) error {
	i := skipSpace(obj, 0)
	if i == len(obj) || obj[i] != '{' {
		return errNotObject
	}
	if i = skipSpace(obj, i+1); i < len(obj) && obj[i] == '}' {
		return nil
	}
	for {
		name, end, ok := String(obj, i)
		if !ok {
			return errNotObject
		}
		if i = skipSpace(obj, end); i == len(obj) || obj[i] != ':' {
			return errNotObject
		}
		i = skipSpace(obj, i+1)
		if end = skipValue(obj, i); end < 0 {
			return errNotObject
		}
		if err := fn(name, obj[i:end]); err != nil {
			return err
		}
		if i = skipSpace(obj, end); i == len(obj) {
			return errNotObject
		}
		switch obj[i] {
		case '}':
			return nil
		case ',':
			i = skipSpace(obj, i+1)
		default:
			return errNotObject
		}
	}
}

// skipValue returns the index just past the JSON value that starts at
// b[i], or -1 when there is none.
func skipValue(b []byte, i int) int {
	start, depth := i, 0
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if i >= len(b) {
				return -1
			}
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth == 0 {
				return end(start, i) // a number or literal that ended its container
			}
			depth--
		case c == ',' || c == ':' || Space(c):
			if depth == 0 {
				return end(start, i) // the end of a number or literal
			}
			continue
		default:
			continue
		}
		if depth == 0 {
			return i + 1
		}
	}
	if depth == 0 {
		return end(start, i) // a number or literal that ends b
	}
	return -1
}

// end is the end of a bare value running from start to i: -1 when it is
// empty.
func end(start, i int) int {
	if i == start {
		return -1
	}
	return i
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && Space(b[i]) {
		i++
	}
	return i
}
