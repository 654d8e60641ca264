package condorg

import (
	"encoding/json"
	"math"
	"time"

	"condorg/internal/jsonscan"
	"condorg/internal/obs"
)

// eventKind is one kind of job event (DESIGN.md §6.2): its trace phase,
// its user-log code ("" for a trace-only kind) and the counter emit bumps,
// once per event and never when a record is read back ("" for none;
// byClass labels it with the event's class).
type eventKind struct {
	phase, code, counter string
	byClass              bool
}

// The kinds of job event.
var (
	evSubmit          = &eventKind{obs.PhaseSubmit, "SUBMIT", "agent_jobs_submitted_total", false}
	evBind            = &eventKind{obs.PhaseBind, "BIND", "", false}
	evDispatch        = &eventKind{obs.PhaseDispatch, "", "", false}
	evStage           = &eventKind{obs.PhaseStage, "", "", false}
	evGridSubmit      = &eventKind{obs.PhaseGridSubmit, "", "", false}
	evCommit          = &eventKind{obs.PhaseCommit, "GRID_SUBMIT", "", false}
	evCommitRetry     = &eventKind{obs.PhaseCommitRetry, "COMMIT_RETRY", "", false}
	evSubmitRetry     = &eventKind{obs.PhaseSubmitRetry, "SUBMIT_RETRY", "", false}
	evPending         = &eventKind{obs.PhasePending, "", "", false}
	evActive          = &eventKind{obs.PhaseActive, "EXECUTE", "", false}
	evDone            = &eventKind{obs.PhaseDone, "TERMINATED", "", false}
	evRemoteFailure   = &eventKind{obs.PhaseRemoteFailure, "REMOTE_FAILURE", "", false}
	evFault           = &eventKind{obs.PhaseFault, "", "", false}
	evFailed          = &eventKind{obs.PhaseFailed, "FAILED", "agent_jobs_failed_total", false}
	evResubmit        = &eventKind{obs.PhaseResubmit, "RESUBMIT", "agent_resubmits_total", true}
	evMigrate         = &eventKind{obs.PhaseMigrate, "MIGRATED", "agent_migrations_total", false}
	evDisconnect      = &eventKind{obs.PhaseDisconnect, "DISCONNECTED", "", false}
	evReconnect       = &eventKind{obs.PhaseReconnect, "RECONNECTED", "", false}
	evJMRestart       = &eventKind{obs.PhaseJMRestart, "JM_RESTARTED", "", false}
	evJMRestartFailed = &eventKind{obs.PhaseJMRestart, "JM_RESTART_FAILED", "", false}
	evCancelAck       = &eventKind{obs.PhaseCancelAck, "CANCEL_ACKED", "", false}
	evHold            = &eventKind{obs.PhaseHold, "HELD", "agent_jobs_held_total", false}
	evRelease         = &eventKind{obs.PhaseRelease, "RELEASED", "", false}
	evRemove          = &eventKind{obs.PhaseRemove, "REMOVED", "agent_jobs_removed_total", false}
	evRecover         = &eventKind{obs.PhaseRecover, "", "", false}
	evCredRefresh     = &eventKind{obs.PhaseCredRefresh, "CRED_REFRESH", obs.Key("cred_redelegations_total", "outcome", "ok"), false}
	evCredRetry       = &eventKind{obs.PhaseCredRefresh, "", obs.Key("cred_redelegations_total", "outcome", "retry"), false}
	evCredFallback    = &eventKind{obs.PhaseCredRefresh, "", obs.Key("cred_redelegations_total", "outcome", "fallback"), false}
)

// emit appends one event of kind k to the job's history and bumps the
// kind's counter. The record's next journal write carries the event,
// together with the change it describes. Caller holds rec.mu.
func (a *Agent) emit(rec *jobRecord, k *eventKind, class, text string) {
	rec.Events = append(rec.Events, Event{At: time.Now(), Phase: k.phase, Code: k.code, Site: rec.Site, Class: class, Text: text})
	if name := k.counter; name != "" {
		if k.byClass {
			name = obs.Key(name, "class", class)
		}
		a.obs.Counter(name).Inc()
	}
}

// userLog is the user-log view of evs: the events that carry a code.
func userLog(evs []Event) []LogEvent {
	out := make([]LogEvent, 0, len(evs))
	for _, ev := range evs {
		if ev.Code != "" {
			out = append(out, LogEvent{Time: ev.At, Code: ev.Code, Text: ev.Text})
		}
	}
	return out
}

// traceOf is the trace view of evs: every event, numbered by position.
func traceOf(evs []Event) obs.Timeline {
	tl := obs.Timeline{Events: make([]obs.TraceEvent, len(evs))}
	for i, ev := range evs {
		tl.Events[i] = obs.TraceEvent{Seq: i, Wall: ev.At, Phase: ev.Phase, Site: ev.Site, Class: ev.Class, Detail: ev.Text}
	}
	return tl
}

// eventJSON is an event as journaled: its time in Unix nanoseconds, and its
// site only when it differs from the previous event's — a job's events
// mostly share one, and a bound job's site is never empty again.
type eventJSON struct {
	At    int64  `json:"at"`
	Phase string `json:"phase,omitempty"`
	Code  string `json:"code,omitempty"`
	Site  string `json:"site,omitempty"`
	Class string `json:"class,omitempty"`
	Text  string `json:"text,omitempty"`
}

// eventList is a job's events as journaled: an image's whole history, or
// the events a patch appends to history.
type eventList []Event

// encode encodes l, whose first event follows history.
func (l eventList) encode(history []Event) ([]byte, error) {
	out := make([]eventJSON, len(l))
	prev := lastSite(history)
	for i, ev := range l {
		out[i] = eventJSON{At: ev.At.UnixNano(), Phase: ev.Phase, Code: ev.Code, Class: ev.Class, Text: ev.Text}
		if ev.Site != prev {
			out[i].Site, prev = ev.Site, ev.Site
		}
	}
	return json.Marshal(out)
}

// decode appends the events raw encodes, which follow l, to l: in place
// when raw is in the shape encode writes (readEvents), through
// encoding/json otherwise.
func (l eventList) decode(raw []byte) (eventList, error) {
	site := lastSite(l)
	if out, ok := l.readEvents(raw, site); ok {
		return out, nil
	}
	var in []eventJSON
	err := json.Unmarshal(raw, &in)
	for _, ev := range in {
		if ev.Site != "" {
			site = ev.Site
		}
		l = append(l, Event{At: time.Unix(0, ev.At), Phase: ev.Phase, Code: ev.Code, Site: site, Class: ev.Class, Text: ev.Text})
	}
	return l, err
}

// readEvents appends the events of raw, which follow l and whose site was
// site, to l when raw is [{"at":N,"phase":…,"code":…,"site":…,"class":…,
// "text":…},…] byte for byte as json.Marshal writes an eventJSON list —
// members in that order, the empty ones left out — and reports false for
// any other bytes, which decode then reads through encoding/json.
func (l eventList) readEvents(raw []byte, site string) (eventList, bool) {
	if len(raw) < 2 || raw[0] != '[' || raw[len(raw)-1] != ']' {
		return l, false
	}
	if len(raw) == 2 {
		return l, true // []
	}
	for i := 1; ; {
		var ev eventJSON
		var ok bool
		if i, ok = jsonscan.Lit(raw, i, `{"at":`); !ok {
			return l, false
		}
		var at uint64
		if at, i, ok = jsonscan.Uint(raw, i); !ok || at > math.MaxInt64 {
			return l, false // a time before 1970 is read by encoding/json
		}
		ev.At = int64(at)
		for _, m := range [...]struct {
			name string
			dst  *string
		}{{`,"phase":`, &ev.Phase}, {`,"code":`, &ev.Code}, {`,"site":`, &ev.Site}, {`,"class":`, &ev.Class}, {`,"text":`, &ev.Text}} {
			if j, ok := jsonscan.Lit(raw, i, m.name); ok {
				if *m.dst, i, ok = jsonscan.String(raw, j); !ok {
					return l, false
				}
			}
		}
		if i, ok = jsonscan.Lit(raw, i, "}"); !ok {
			return l, false
		}
		if ev.Site != "" {
			site = ev.Site
		}
		l = append(l, Event{At: time.Unix(0, ev.At), Phase: ev.Phase, Code: ev.Code, Site: site, Class: ev.Class, Text: ev.Text})
		if i == len(raw)-1 {
			return l, true
		}
		if i, ok = jsonscan.Lit(raw, i, ","); !ok {
			return l, false
		}
	}
}

// MarshalJSON implements json.Marshaler.
func (l eventList) MarshalJSON() ([]byte, error) { return l.encode(nil) }

// UnmarshalJSON implements json.Unmarshaler.
func (l *eventList) UnmarshalJSON(raw []byte) (err error) {
	*l, err = eventList(nil).decode(raw)
	return err
}

// lastSite is the site of the last of evs ("" for none).
func lastSite(evs []Event) string {
	if len(evs) == 0 {
		return ""
	}
	return evs[len(evs)-1].Site
}
