package condorg

// The agent's spool: its own GASS tree, which sites read payloads from and
// stream output into (DESIGN.md §8). Every payload is stored once under
// objects/<sha256>; under HA it is also replicated through the journal
// under a spool/ key that the last job naming it releases.

import (
	"fmt"
	"hash/fnv"
	"os"
	"path"
	"path/filepath"
	"slices"

	"condorg/internal/faultclass"
	"condorg/internal/gass"
	"condorg/internal/gram"
	"condorg/internal/journal"
)

// spoolKeyPrefix namespaces replicated job payloads inside the owner's
// queue partition, apart from the job records keyed by bare job ID. The
// rest of the key is the spool path the job's spec URL names.
const spoolKeyPrefix = "spool/"

// spoolStripes is how many locks the spool paths hash onto (see
// Agent.spoolLocks).
const spoolStripes = 64

// initSpool lays out the agent's GASS tree: objects/ holds every payload
// once under its content hash and partial/ the temp files objects are
// written through. Every job's stdout and stderr are streams of the GASS
// server's append log, under out/<id> paths no directory holds. A temp file
// left by a crash is never renamed, so partial/ starts empty.
func (a *Agent) initSpool() error {
	root := a.gassS.Root()
	if err := os.RemoveAll(filepath.Join(root, "partial")); err != nil {
		return err
	}
	for _, d := range []string{"objects", "partial"} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o700); err != nil {
			return err
		}
	}
	return nil
}

// spool stores one payload (executable or stdin) in the agent's own GASS
// tree as objects/<hash>, without a round trip, and returns that path. An
// object already on disk is not written again, and concurrent submits of a
// new payload write it once: the first writes under the object's lock, the
// others find it there. Owners share objects safely, because an object's
// name is the hash of its bytes. A failed write is a local hiccup, not a
// verdict on the job: Transient, so callers retry.
func (a *Agent) spool(hash string, data []byte) (string, error) {
	rel := path.Join("objects", hash)
	lk := &a.spoolLocks[spoolStripe(rel)]
	lk.Lock()
	err := a.commitSpool(rel, data)
	lk.Unlock()
	if err != nil {
		return "", faultclass.New(faultclass.Transient, fmt.Errorf("condorg: spool %s: %w", short(hash), err))
	}
	return rel, nil
}

// commitSpool puts data at rel in the GASS tree the way the site's stage
// cache commits an object: written to a temp file of its own, then renamed
// into place, so a reader never sees a short file and a file is never
// rewritten in place. A file already there at data's size is kept.
func (a *Agent) commitSpool(rel string, data []byte) error {
	root := a.gassS.Root()
	dst := filepath.Join(root, filepath.Clean("/"+rel))
	if fi, err := os.Stat(dst); err == nil && fi.Size() == int64(len(data)) {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o700); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Join(root, "partial"), filepath.Base(dst)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	a.obs.Counter("agent_spool_writes_total").Inc()
	return nil
}

// spoolPaths returns the spool paths a spec's input URLs name: the
// executable's and, when the job has one, stdin's.
func spoolPaths(spec gram.JobSpec) []string {
	var out []string
	for _, ref := range [...]string{spec.Executable, spec.Stdin} {
		if u, err := gass.ParseURL(ref); err == nil {
			out = append(out, u.Path)
		}
	}
	return out
}

// spoolStripe maps a spool path onto its lock in Agent.spoolLocks.
func spoolStripe(p string) int {
	h := fnv.New32a()
	h.Write([]byte(p))
	return int(h.Sum32() % spoolStripes)
}

// replicateSpool journals a job's payloads (by spool path) under HA, each
// before the job record, so a standby that holds the record holds the
// bytes it must re-stage after takeover; then admit journals and indexes
// the job. Both happen under the read side of each payload's stripe, taken
// in stripe order, so no finishJob of a job sharing a payload can drop its
// key in between.
func (a *Agent) replicateSpool(sh *ownerShard, payloads map[string][]byte, admit func() error) error {
	var stripes []int
	for p := range payloads {
		stripes = append(stripes, spoolStripe(p))
	}
	slices.Sort(stripes)
	for _, i := range slices.Compact(stripes) {
		a.spoolLocks[i].RLock()
		defer a.spoolLocks[i].RUnlock()
	}
	for p, data := range payloads {
		if err := sh.store.Put(spoolKeyPrefix+p, data); err != nil {
			return faultclass.New(faultclass.Transient, fmt.Errorf("condorg: replicate %s: %w", p, err))
		}
	}
	return admit()
}

// releaseSpoolKey drops the replicated payload at spool path p from a
// journal partition once no active job of that partition names p, so the
// journal stream and snapshots stop carrying bytes no job needs. The
// stripe's write lock keeps a concurrent submit's Put and indexing of p
// from landing between the check and the Delete.
func (a *Agent) releaseSpoolKey(store *journal.Store, p string) {
	lk := &a.spoolLocks[spoolStripe(p)]
	lk.Lock()
	defer lk.Unlock()
	for _, sh := range a.allShards() {
		if sh.store == store && sh.activeNames(p) {
			return
		}
	}
	// A failed Delete only leaves the bytes in the journal: a later
	// recovery re-stages an object no job names, which is harmless.
	_ = store.Delete(spoolKeyPrefix + p)
}

// openSpool opens the file a gass:// URL of the agent's own spool server
// names, through the server's local door, and reports its size.
func (a *Agent) openSpool(ref string) (*os.File, int64, error) {
	u, err := gass.ParseURL(ref)
	if err != nil {
		return nil, 0, err
	}
	f, err := a.gassS.Open(u.Path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// readSpool reads the file a gass:// URL of the agent's own spool server
// names, through the server's local door.
func (a *Agent) readSpool(ref string) ([]byte, error) {
	u, err := gass.ParseURL(ref)
	if err != nil {
		return nil, err
	}
	return a.gassS.ReadFile(u.Path)
}
