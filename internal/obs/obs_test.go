package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("jobs_total"); again != c {
		t.Fatal("Counter did not return the same handle for the same name")
	}
	g := r.Gauge("active")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %g, want 3.5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	q := h.Quantiles(0.5, 0.95, 0.99, 0, 1)
	want := []float64{50, 95, 99, 1, 100}
	for i := range want {
		if q[i] != want[i] {
			t.Errorf("quantile[%d] = %g, want %g", i, q[i], want[i])
		}
	}
	if h.Count() != 100 {
		t.Errorf("count = %d, want 100", h.Count())
	}
	if h.Sum() != 5050 {
		t.Errorf("sum = %g, want 5050", h.Sum())
	}
}

func TestHistogramWindowEviction(t *testing.T) {
	h := &Histogram{}
	// First fill the window with large values, then overwrite every slot
	// with small ones; quantiles must reflect only the recent window while
	// Count/Sum cover the lifetime.
	for i := 0; i < HistogramWindow; i++ {
		h.Observe(1000)
	}
	for i := 0; i < HistogramWindow; i++ {
		h.Observe(1)
	}
	q := h.Quantiles(0.5, 0.99)
	if q[0] != 1 || q[1] != 1 {
		t.Fatalf("quantiles over evicted window = %v, want all 1", q)
	}
	if h.Count() != 2*HistogramWindow {
		t.Fatalf("lifetime count = %d, want %d", h.Count(), 2*HistogramWindow)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("z_total").Add(2)
		r.Counter("a_total").Add(1)
		r.Gauge("m_gauge").Set(7)
		h := r.Histogram("lat_seconds")
		h.Observe(0.25)
		h.Observe(0.75)
		r.AddCollector(func(set func(string, float64)) {
			set("collected_gauge", 42)
		})
		return r
	}
	s1, s2 := build().Snapshot(), build().Snapshot()
	t1, t2 := DumpText(s1), DumpText(s2)
	if t1 != t2 {
		t.Fatalf("dump not deterministic:\n%s\nvs\n%s", t1, t2)
	}
	// Sorted by name, collector value present.
	names := make([]string, len(s1))
	for i, m := range s1 {
		names[i] = m.Name
	}
	wantOrder := []string{"a_total", "collected_gauge", "lat_seconds", "m_gauge", "z_total"}
	for i, w := range wantOrder {
		if names[i] != w {
			t.Fatalf("snapshot order = %v, want %v", names, wantOrder)
		}
	}
	for _, m := range s1 {
		if m.Name == "collected_gauge" && m.Value != 42 {
			t.Fatalf("collected gauge = %g, want 42", m.Value)
		}
		if m.Name == "lat_seconds" {
			if m.Count != 2 || m.Sum != 1.0 {
				t.Fatalf("histogram snapshot = %+v", m)
			}
		}
	}
	if _, err := json.Marshal(s1); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

func TestNilRegistryDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("z")
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	if q := h.Quantiles(0.5); q[0] != 0 {
		t.Fatal("nil histogram quantile non-zero")
	}
	r.AddCollector(func(set func(string, float64)) { set("a", 1) })
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", s)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h").Observe(float64(j))
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
}

func TestKey(t *testing.T) {
	if got := Key("gram_rtt_seconds", "verb", "submit"); got != "gram_rtt_seconds{verb=submit}" {
		t.Fatalf("Key = %q", got)
	}
	if got := Key("x", "a", "1", "b", "2"); got != "x{a=1,b=2}" {
		t.Fatalf("Key = %q", got)
	}
	if got := Key("plain"); got != "plain" {
		t.Fatalf("Key = %q", got)
	}
}
