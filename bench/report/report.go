// Package report holds what the benchmark, its smoke test and benchdiff
// share: the BENCHMARK.json contract, the result-file format, and the
// comparison rule (a cell moved only if its medians differ by more than the
// bound the contract fixed, and is unresolved when either side's own
// run-to-run spread already exceeds that bound).
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// WorkloadSpec names one workload and why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec declares one metric; Bound is set on end-to-end metrics only.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Bound returns the regression bound of an end-to-end metric.
func (s *Spec) Bound(metric string) (float64, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == metric {
			return m.Bound, true
		}
	}
	return 0, false
}

// LoadSpec reads BENCHMARK.json from path.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Run is the result of one workload run in one process.
type Run struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are the contract metrics: every end_to_end metric of
	// BENCHMARK.json on an untraced run, every per_layer metric on a
	// traced one.
	Metrics map[string]Metric `json:"metrics"`
	// Samples is the number of observations behind a timing metric.
	Samples map[string]int `json:"samples,omitempty"`
	// Diagnostic metrics are printed and stored but carry no bound.
	Diagnostic map[string]Metric `json:"diagnostic,omitempty"`
	// Problems lists the first oracle failures in prose.
	Problems []string `json:"problems,omitempty"`
}

// Line renders the one-line JSON object the benchmark contract asks for as
// the last line of standard output.
func (r *Run) Line() string {
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(out)
}

// Env records where a result was measured, so fsync- or core-bound numbers
// are never compared across machines or disks unknowingly.
type Env struct {
	Nproc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	FSType     string `json:"state_fs_type"`
	Users      int    `json:"users"`
	DelayMS    int    `json:"delay_ms"`
}

// Cell summarises one metric on one workload over the repetitions.
type Cell struct {
	Unit   string    `json:"unit"`
	Kind   string    `json:"kind"` // end_to_end | per_layer | diagnostic
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Range  float64   `json:"max_minus_min"`
	Values []float64 `json:"values"`
}

// File is a checked-in result set (bench/results/BENCH_*.json).
type File struct {
	Schema  int     `json:"schema"`
	Env     Env     `json:"env"`
	Seconds int     `json:"seconds"`
	Seeds   []int64 `json:"seeds"`
	// Cells is workload → metric → summary.
	Cells map[string]map[string]Cell `json:"cells"`
	// FailedOpsShare is workload → failed ÷ attempted over all runs.
	FailedOpsShare map[string]float64 `json:"failed_ops_share"`
}

// Add folds one run into the file under the given kind.
func (f *File) Add(r *Run) {
	if f.Cells == nil {
		f.Cells = map[string]map[string]Cell{}
	}
	w := f.Cells[r.Workload]
	if w == nil {
		w = map[string]Cell{}
		f.Cells[r.Workload] = w
	}
	kind := "end_to_end"
	if r.Trace {
		kind = "per_layer"
	}
	put := func(kind string, ms map[string]Metric) {
		for name, m := range ms {
			c := w[name]
			c.Unit, c.Kind = m.Unit, kind
			c.Values = append(c.Values, m.Value)
			w[name] = c
		}
	}
	put(kind, r.Metrics)
	put("diagnostic", r.Diagnostic)
}

// Summarise fills the order statistics of every cell from its values.
func (f *File) Summarise() {
	for _, w := range f.Cells {
		for name, c := range w {
			c.Median = Median(c.Values)
			c.Q1, c.Q3 = Quartiles(c.Values)
			s := sorted(c.Values)
			c.Range = s[len(s)-1] - s[0]
			w[name] = c
		}
	}
}

// LoadFile reads a result file.
func LoadFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// SaveJSON writes v to path as indented JSON.
func SaveJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Verdict classifies one metric×workload cell of a comparison.
type Verdict string

// The verdicts Diff can reach for a cell that is worth printing.
const (
	Regressed  Verdict = "REGRESSED"
	Improved   Verdict = "improved"
	Unresolved Verdict = "unresolved"
)

// Move is one end-to-end cell that Diff reports.
type Move struct {
	Workload, Metric, Unit string
	A, B                   float64 // medians
	Change                 float64 // (B-A)/A, signed so that positive is worse
	Bound                  float64
	Verdict                Verdict
}

// Diff compares the end-to-end cells of two result files against the
// bounds in spec and returns only the cells that moved beyond their bound,
// or whose own spread exceeds it (unresolved), ordered by workload.
func Diff(spec *Spec, a, b *File) []Move {
	var moves []Move
	for _, wl := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			ca, okA := a.Cells[wl.Name][ms.Name]
			cb, okB := b.Cells[wl.Name][ms.Name]
			if !okA || !okB || ca.Median == 0 {
				continue
			}
			worse := (cb.Median - ca.Median) / ca.Median
			if ms.Better == "higher" {
				worse = -worse
			}
			m := Move{Workload: wl.Name, Metric: ms.Name, Unit: ms.Unit,
				A: ca.Median, B: cb.Median, Change: worse, Bound: ms.Bound}
			switch {
			case Spread(ca.Values) > ms.Bound || Spread(cb.Values) > ms.Bound:
				// Wider than the bound on its own: neither "moved" nor
				// "unchanged" can be said.
				m.Verdict = Unresolved
			case worse > -ms.Bound && worse < ms.Bound:
				continue
			case worse >= ms.Bound:
				m.Verdict = Regressed
			default:
				m.Verdict = Improved
			}
			moves = append(moves, m)
		}
	}
	return moves
}

// FormatMoves renders Diff's output one row per workload; empty when
// nothing moved.
func FormatMoves(moves []Move) string {
	byWL := map[string][]string{}
	var order []string
	for _, m := range moves {
		if _, seen := byWL[m.Workload]; !seen {
			order = append(order, m.Workload)
		}
		byWL[m.Workload] = append(byWL[m.Workload], fmt.Sprintf("%s %s %.4g→%.4g %s (%+.1f%% worse, bound %.0f%%)",
			m.Verdict, m.Metric, m.A, m.B, m.Unit, 100*m.Change, 100*m.Bound))
	}
	var sb strings.Builder
	for _, wl := range order {
		fmt.Fprintf(&sb, "%-12s %s\n", wl, strings.Join(byWL[wl], "; "))
	}
	return sb.String()
}

// Names returns the sorted keys of a metric map.
func Names[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
