package journal

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

type jobRec struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

func TestStorePutGetDelete(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("job1", jobRec{ID: "job1", State: "idle"}); err != nil {
		t.Fatal(err)
	}
	var j jobRec
	found, err := s.Get("job1", &j)
	if err != nil || !found || j.State != "idle" {
		t.Fatalf("get: found=%v err=%v j=%+v", found, err, j)
	}
	if found, _ := s.Get("missing", &j); found {
		t.Fatal("missing key reported found")
	}
	if err := s.Delete("job1"); err != nil {
		t.Fatal(err)
	}
	if found, _ := s.Get("job1", &j); found {
		t.Fatal("deleted key reported found")
	}
	if err := s.Delete("job1"); err != nil {
		t.Fatal("delete of absent key should be nil")
	}
}

func TestStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	s.Put("a", jobRec{ID: "a", State: "running"})
	s.Put("b", jobRec{ID: "b", State: "idle"})
	s.Put("a", jobRec{ID: "a", State: "done"})
	s.Delete("b")
	s.Close() // "crash" and reopen
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var j jobRec
	found, _ := s2.Get("a", &j)
	if !found || j.State != "done" {
		t.Fatalf("recovered a = %+v (found=%v), want done", j, found)
	}
	if found, _ := s2.Get("b", &j); found {
		t.Fatal("deleted key b survived recovery")
	}
	if s2.Len() != 1 {
		t.Fatalf("recovered len = %d, want 1", s2.Len())
	}
}

func TestStoreRecoveryAfterCompact(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("k%d", i), i)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Put("post", 99) // a delta after the snapshot
	s.Close()
	s2, _ := OpenStore(dir)
	defer s2.Close()
	if s2.Len() != 21 {
		t.Fatalf("len after compact+recover = %d, want 21", s2.Len())
	}
	var v int
	if found, _ := s2.Get("post", &v); !found || v != 99 {
		t.Fatalf("post-compact delta lost: found=%v v=%d", found, v)
	}
}

func TestStoreAutoCompact(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	const n = 2*segmentMaxRecords + 5
	for i := 0; i < n; i++ {
		if err := s.Put("k", i); err != nil {
			t.Fatal(err)
		}
	}
	if s.deltas >= segmentMaxRecords {
		t.Fatalf("auto-compact did not trigger: deltas=%d", s.deltas)
	}
	s.Close()
	s2, _ := OpenStore(dir)
	defer s2.Close()
	var v int
	if found, _ := s2.Get("k", &v); !found || v != n-1 {
		t.Fatalf("after auto-compact: found=%v v=%d, want %d", found, v, n-1)
	}
}

func TestStoreForEachAndKeys(t *testing.T) {
	s, _ := OpenStore(t.TempDir())
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("k%d", i), i)
	}
	if got := len(s.Keys()); got != 5 {
		t.Fatalf("keys = %d, want 5", got)
	}
	count := 0
	s.ForEach(func(string, json.RawMessage) error { count++; return nil })
	if count != 5 {
		t.Fatalf("foreach visited %d, want 5", count)
	}
}

func TestStoreClosedOperationsFail(t *testing.T) {
	s, _ := OpenStore(t.TempDir())
	s.Close()
	if err := s.Put("k", 1); err == nil {
		t.Fatal("Put on closed store should fail")
	}
}

// Property: a store recovered after arbitrary put/delete interleavings
// equals the in-memory model.
func TestQuickStoreModelEquivalence(t *testing.T) {
	f := func(ops []uint8) bool {
		dir := t.TempDir()
		s, err := OpenStore(dir)
		if err != nil {
			return false
		}
		model := map[string]int{}
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op%8)
			if op%3 == 0 {
				s.Delete(key)
				delete(model, key)
			} else {
				s.Put(key, i)
				model[key] = i
			}
		}
		s.Close()
		s2, err := OpenStore(dir)
		if err != nil {
			return false
		}
		defer s2.Close()
		if s2.Len() != len(model) {
			return false
		}
		for k, want := range model {
			var got int
			found, err := s2.Get(k, &got)
			if err != nil || !found || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentAccess: the store is shared by the Scheduler's
// goroutines; concurrent puts/gets/deletes must be safe and linearizable
// enough that recovery sees a consistent final state.
func TestStoreConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d", g)
				if err := s.Put(key, i); err != nil {
					t.Error(err)
					return
				}
				var v int
				if found, err := s.Get(key, &v); err != nil || !found {
					t.Errorf("get %s: found=%v err=%v", key, found, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 8 {
		t.Fatalf("recovered %d keys, want 8", s2.Len())
	}
	for g := 0; g < 8; g++ {
		var v int
		found, err := s2.Get(fmt.Sprintf("g%d", g), &v)
		if err != nil || !found || v != 49 {
			t.Fatalf("g%d: found=%v v=%d err=%v", g, found, v, err)
		}
	}
}
