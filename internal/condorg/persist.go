package condorg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"

	"condorg/internal/gram"
	"condorg/internal/journal"
	"condorg/internal/jsonscan"
)

// The job record's journal history (DESIGN.md §10): one full image when the
// job is admitted, then patches that carry only what each later write
// changed. Every write names its durability class; only the paper's
// contract points wait for the disk.

// durability is the class of one journal write of a job record.
type durability int

const (
	// lazy writes carry what recovery re-derives (progress the site's
	// answers re-establish, or the next restart redoes). They ride the
	// partition's next group commit: the record is written — one patch,
	// however many lazy changes it gathered — just before that commit's
	// write (or Close), and never waits for a flush of its own. A crash
	// loses what has not ridden a commit yet, as recovery allows.
	lazy durability = iota
	// mustWait writes are the contract points: admission before Submit
	// acks (§3.2), the GRAM contact before the commit, terminal and
	// failure verdicts before anyone is told, a new binding before the
	// wire, hold/release/remove, and cancel tombstones. persist returns
	// only once the write is durable and, under HA, held by the standby.
	mustWait
	// frameWait is mustWait with the wait left to the caller: the record
	// is enqueued at once but not waited for, and the caller makes the
	// whole batch durable with one flushOwner before releasing any of its
	// effects — one wait per submit or probe frame instead of one per job.
	frameWait
)

// maxPatchesPerImage bounds the patches on one image: the write after
// that many is a full image again, so replaying a long-lived job folds a
// bounded list.
const maxPatchesPerImage = 32

// jobDoc is a job record as journaled in full: the admit image, a re-image,
// and what folding an image with its patches rebuilds.
type jobDoc struct {
	JobInfo
	SubmissionID string       `json:"submission_id"`
	Spec         gram.JobSpec `json:"spec"`
	// Remote mirrors the last GRAM state seen, to detect transitions.
	Remote gram.JobState `json:"remote"`
	// Events is the job's history, appended only through Agent.emit.
	Events eventList `json:"events"`
	// Log hides JobInfo.Log, the user-log view of Events, which a job
	// record never holds.
	Log []LogEvent `json:"log,omitempty"`
}

// A patch is a JSON object holding, under its jobDoc name, every top-level
// field whose value changed since the record's previous write, plus the
// events appended since then under "events" (there, a list to append
// rather than a value to replace).

// docField is one top-level jobDoc field a patch replaces whole: its JSON
// name and its index path (JobInfo's fields are promoted).
type docField struct {
	name  string
	index []int
}

// docFields lists jobDoc's replaceable fields, found by reflection, so a
// field added to the record is patched without being listed anywhere. The
// history is left out: patches append to it.
var docFields = func() []docField {
	var out []docField
	for _, f := range reflect.VisibleFields(reflect.TypeFor[jobDoc]()) {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Anonymous || !f.IsExported() || name == "-" || name == "events" || name == "log" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		out = append(out, docField{name, f.Index})
	}
	return out
}()

// zeroFields holds the encoding of each of docFields' zero values: what an
// image that leaves a field out (omitempty) holds for it.
var zeroFields = func() [][]byte {
	out, err := marshalFields(&jobDoc{})
	if err != nil {
		panic(err) // the zero record always encodes
	}
	return out
}()

// fieldIndex returns the position of the field named name in docFields, or
// -1 when no replaceable field has that name.
func fieldIndex(name string) int {
	return slices.IndexFunc(docFields, func(f docField) bool { return f.name == name })
}

// marshalFields encodes each of docFields' values in doc, in that order.
func marshalFields(doc *jobDoc) ([][]byte, error) {
	v := reflect.ValueOf(doc).Elem()
	out := make([][]byte, len(docFields))
	for i, f := range docFields {
		raw, err := json.Marshal(v.FieldByIndex(f.index).Interface())
		if err != nil {
			return nil, fmt.Errorf("condorg: encode job field %s: %w", f.name, err)
		}
		out[i] = raw
	}
	return out, nil
}

// appendMember appends "name":raw to the JSON object under way in buf.
func appendMember(buf []byte, name string, raw []byte) []byte {
	if len(buf) > 1 {
		buf = append(buf, ',')
	}
	buf = append(buf, '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return append(buf, raw...)
}

// applyPatch folds one patch into doc, decoding each member once, and
// records in fields the bytes of each replaceable field it set.
func applyPatch(doc *jobDoc, fields [][]byte, raw json.RawMessage) error {
	v := reflect.ValueOf(doc).Elem()
	return jsonscan.Members(raw, func(name string, val []byte) error {
		if name == "events" {
			evs, err := doc.Events.decode(val)
			if err != nil {
				return fmt.Errorf("events: %w", err)
			}
			doc.Events = evs
			return nil
		}
		i := fieldIndex(name)
		if i < 0 {
			return nil // as an image's unknown fields are
		}
		// A fresh value, so the patch replaces the field whole rather
		// than merging into what the image held.
		field := v.FieldByIndex(docFields[i].index)
		fresh := reflect.New(field.Type())
		if err := json.Unmarshal(val, fresh.Interface()); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		field.Set(fresh.Elem())
		fields[i] = val
		return nil
	})
}

// patchOf encodes what doc, whose docFields values are fields, adds to the
// history jw describes: a patch, or nil when nothing changed.
func patchOf(jw journaled, doc *jobDoc, fields [][]byte) ([]byte, error) {
	raw := []byte{'{'}
	for i, f := range docFields {
		if !bytes.Equal(fields[i], jw.fields[i]) {
			raw = appendMember(raw, f.name, fields[i])
		}
	}
	if evs := doc.Events[jw.events:]; len(evs) > 0 {
		enc, err := evs.encode(doc.Events[:jw.events])
		if err != nil {
			return nil, err
		}
		raw = appendMember(raw, "events", enc)
	}
	if len(raw) == 1 {
		return nil, nil
	}
	return append(raw, '}'), nil
}

// journaled is what a record's journal history holds, as of its last
// write. Guarded by the record's persistMu.
type journaled struct {
	imaged  bool     // an image exists (false only before admission)
	patches int      // patches on the current image
	fields  [][]byte // docFields values of the last write
	events  int      // events written
}

// foldJob rebuilds a job record from its image and patches, decoding each
// once. What the journal holds of each replaceable field (journaled.fields)
// is read off the bytes just decoded rather than encoded again: a member
// holds what json.Marshal gave for the field when it was written.
func foldJob(key string, image json.RawMessage, patches []json.RawMessage) (*jobRecord, error) {
	if image == nil {
		return nil, fmt.Errorf("condorg: job record %s has %d patches but no image", key, len(patches))
	}
	var doc jobDoc
	if err := json.Unmarshal(image, &doc); err != nil {
		return nil, fmt.Errorf("condorg: job record %s: %w", key, err)
	}
	fields := slices.Clone(zeroFields)
	if err := jsonscan.Members(image, func(name string, val []byte) error {
		if i := fieldIndex(name); i >= 0 {
			fields[i] = val
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("condorg: job record %s: %w", key, err)
	}
	for i, raw := range patches {
		if err := applyPatch(&doc, fields, raw); err != nil {
			return nil, fmt.Errorf("condorg: job record %s patch %d: %w", key, i, err)
		}
	}
	rec := &jobRecord{jobDoc: doc}
	// What was read back is durable: terminal states may be reported, and
	// its user-log lines were mirrored when they were written.
	rec.settled = rec.State.Terminal()
	rec.mirrored = len(rec.Events)
	rec.jw = journaled{imaged: true, patches: len(patches), fields: fields, events: len(rec.Events)}
	return rec, nil
}

// persist journals what changed in rec since its last write, in class d.
// A lazy change only queues the record on its partition (see lazy) and
// returns nil; any other write first writes the partition's queued
// records, so the commit it waits for (or, for frameWait, the caller's
// flushOwner) covers them too. The error is the journal's: a failed write
// leaves the record's history where it was, and its next write carries the
// change again.
func (a *Agent) persist(rec *jobRecord, d durability) error {
	store := a.shardIfPresent(rec.Owner).store
	if d == lazy {
		// A lazy change's log lines reach the user log now, not with the
		// commit its write waits for: the user log is how a user watches a
		// running job. A crash before that commit re-derives the change,
		// and its line appears a second time.
		rec.mu.Lock()
		a.mirrorLocked(rec, len(rec.Events))
		rec.mu.Unlock()
		a.lazyMu.Lock()
		if !rec.lazyQueued {
			rec.lazyQueued = true
			a.lazy[store] = append(a.lazy[store], rec)
		}
		a.lazyMu.Unlock()
		return nil
	}
	a.writeLazy(store, rec)
	return a.write(rec, store, d)
}

// writeLazy enqueues one patch for every record queued lazily on store,
// except skip, whose own write is about to carry its changes.
func (a *Agent) writeLazy(store *journal.Store, skip *jobRecord) {
	a.lazyMu.Lock()
	recs := a.lazy[store]
	delete(a.lazy, store)
	for _, rec := range recs {
		rec.lazyQueued = false
	}
	a.lazyMu.Unlock()
	for _, rec := range recs {
		if rec != skip {
			// A failed write leaves the change for the record's next one.
			_ = a.write(rec, store, lazy)
		}
	}
}

// write journals rec's changes since its last write to store: a full image
// for the first write of a record (and every maxPatchesPerImage-th after),
// a patch otherwise, enqueued only (lazy, frameWait) or waited out
// (mustWait). A must-wait write with nothing new still waits, so the caller
// may rely on everything written so far being durable. After the write the
// user-log events it carried that are not mirrored yet go to the owner's
// user log.
func (a *Agent) write(rec *jobRecord, store *journal.Store, d durability) error {
	// persistMu orders diff+write pairs per record: with per-site workers,
	// two goroutines can persist the same job back to back, and the record's
	// patches must reach the journal in the order they were cut.
	rec.persistMu.Lock()
	defer rec.persistMu.Unlock()
	jw := rec.jw
	rec.mu.Lock()
	// A shallow copy suffices: the record's slices only grow or are
	// replaced (CancelPending), never rewritten in place.
	doc := rec.jobDoc
	rec.mu.Unlock()
	fields, err := marshalFields(&doc)
	if err != nil {
		return err
	}
	full := !jw.imaged || jw.patches >= maxPatchesPerImage
	var raw []byte
	if full {
		if raw, err = json.Marshal(&doc); err != nil {
			return err
		}
	} else {
		if raw, err = patchOf(jw, &doc, fields); err != nil {
			return err
		}
		if raw == nil { // nothing changed
			if d == mustWait {
				return store.Flush()
			}
			return nil
		}
	}
	if a.testPersistHook != nil {
		a.testPersistHook(rec, d)
	}
	start := time.Now()
	if full {
		err = store.PutRaw(rec.ID, raw, d == mustWait)
	} else {
		err = store.Patch(rec.ID, raw, d == mustWait)
	}
	a.mPersist.Observe(time.Since(start).Seconds())
	if err != nil {
		return err
	}
	rec.jw = journaled{imaged: true, patches: jw.patches + 1, fields: fields, events: len(doc.Events)}
	if full {
		rec.jw.patches = 0
	}
	rec.mu.Lock()
	a.mirrorLocked(rec, len(doc.Events))
	rec.mu.Unlock()
	return nil
}

// flushOwner makes every write enqueued on owner's journal partition
// durable, lazily queued records included: the one wait a batch of
// frameWait writes shares.
func (a *Agent) flushOwner(owner string) error {
	store := a.shardIfPresent(owner).store
	a.writeLazy(store, nil)
	return store.Flush()
}

// mirrorLocked appends the user-log lines of the job's events before index
// n that are not in the owner's on-disk user log yet (§4.1: "obtain access
// to detailed logs, providing a complete history of their jobs'
// execution"), so the history is greppable without the agent API. A line
// that cannot be appended stops the mirror there: the record's next write
// retries it. Caller holds rec.mu, which keeps one job's lines in order.
func (a *Agent) mirrorLocked(rec *jobRecord, n int) {
	for ; rec.mirrored < n; rec.mirrored++ {
		if ev := &rec.Events[rec.mirrored]; ev.Code != "" && a.appendUserLog(rec, ev) != nil {
			return
		}
	}
}

// release wakes the job's waiters once the write of its change has
// returned. A terminal state reaches Wait only when that write made it
// durable (ok): "its terminal state is on disk before it is reported".
func (rec *jobRecord) release(ok bool) {
	rec.mu.Lock()
	if ok && rec.State.Terminal() {
		rec.settled = true
	}
	rec.bumpLocked()
	rec.mu.Unlock()
}
