package journal

import (
	"encoding/json"

	"condorg/internal/jsonscan"
)

// readRecord decodes body, one frame's JSON, when it is
// {"type":T,"seq":N,"prev":P,"data":{"key":K[,"value":V]}} byte for byte as
// frameRecord writes it around a frameDelta: in one pass, where
// encoding/json scans a record four times (validity and skip for the
// Record, again for the storeDelta). It decodes what json.Unmarshal gives
// for such a body, and rec.Data and d.Value alias body: nothing is copied.
// Anything else — fields reordered or renamed, whitespace, a payload that
// is not a store delta — is not ok, and the caller decodes it through
// encoding/json, so foreign bytes meet the verdicts they always did.
func readRecord(body []byte) (rec Record, d storeDelta, ok bool) {
	i, ok := jsonscan.Lit(body, 0, `{"type":`)
	if !ok {
		return rec, d, false
	}
	if rec.Type, i, ok = jsonscan.String(body, i); !ok {
		return rec, d, false
	}
	if i, ok = jsonscan.Lit(body, i, `,"seq":`); !ok {
		return rec, d, false
	}
	if rec.Seq, i, ok = jsonscan.Uint(body, i); !ok {
		return rec, d, false
	}
	if i, ok = jsonscan.Lit(body, i, `,"prev":`); !ok {
		return rec, d, false
	}
	if rec.Prev, i, ok = jsonscan.String(body, i); !ok {
		return rec, d, false
	}
	if i, ok = jsonscan.Lit(body, i, `,"data":`); !ok {
		return rec, d, false
	}
	if len(body) == i || body[len(body)-1] != '}' {
		return rec, d, false
	}
	rec.Data = body[i : len(body)-1 : len(body)-1]
	if d, ok = readDelta(rec.Data); !ok {
		return rec, d, false
	}
	return rec, d, true
}

// readDelta decodes data when it is {"key":K} or {"key":K,"value":V} as
// frameDelta writes it; d.Value aliases data.
func readDelta(data []byte) (d storeDelta, ok bool) {
	i, ok := jsonscan.Lit(data, 0, `{"key":`)
	if !ok {
		return d, false
	}
	if d.Key, i, ok = jsonscan.String(data, i); !ok {
		return d, false
	}
	if i == len(data)-1 && data[i] == '}' {
		return d, true // a delete
	}
	if i, ok = jsonscan.Lit(data, i, `,"value":`); !ok || data[len(data)-1] != '}' {
		return d, false
	}
	v := data[i : len(data)-1 : len(data)-1]
	// The value is the one part the store never parses itself: it must be
	// exactly one JSON document, with no space around it for encoding/json
	// to trim. The CRC and chain do not make json.Valid redundant: values
	// are copied raw into snapshots and the standby stream, so one invalid
	// value would make a whole snapshot unreadable.
	if len(v) == 0 || jsonscan.Space(v[0]) || jsonscan.Space(v[len(v)-1]) || !json.Valid(v) {
		return d, false
	}
	d.Value = v
	return d, true
}

// decodeDelta decodes a store delta: in place when it is in frameDelta's
// shape, through encoding/json otherwise.
func decodeDelta(data []byte) (storeDelta, error) {
	if d, ok := readDelta(data); ok {
		return d, nil
	}
	var d storeDelta
	err := json.Unmarshal(data, &d)
	return d, err
}
