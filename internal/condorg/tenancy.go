package condorg

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/journal"
	"condorg/internal/obs"
)

// Multi-tenant core: the job table is lock-striped per owner (one
// ownerShard per owner, each with its own mutex and journal partition)
// and admission to the queue is governed by per-owner quotas and a
// token-bucket rate limit, enforced before any work reaches the
// GridManager pipelines. See DESIGN.md §11.

// Typed admission errors. Both are classified Permanent — retrying the
// same request immediately cannot succeed, and the control plane maps
// them to the stable codes CtlCodeQuotaExceeded / CtlCodeRateLimited
// rather than a Transient the CLI would blindly retry.
var (
	// ErrQuotaExceeded reports a submit rejected by a per-owner quota
	// (max queued, max active, or max payload size).
	ErrQuotaExceeded = errors.New("owner quota exceeded")
	// ErrRateLimited reports a submit rejected by the per-owner
	// token-bucket rate limit.
	ErrRateLimited = errors.New("owner submit rate exceeded")
)

// TenancyOptions configures multi-owner sharding and fair-share
// admission. The zero value imposes no quotas and shards the journal
// across journal.DefaultPartitions buckets.
type TenancyOptions struct {
	// Partitions is the number of journal partitions the job queue is
	// hash-sharded across by owner (0 = journal.DefaultPartitions). The
	// count is pinned in the state directory at first start.
	Partitions int
	// MaxQueuedPerOwner caps one owner's total non-terminal jobs,
	// held included (0 = unlimited).
	MaxQueuedPerOwner int
	// MaxActivePerOwner caps one owner's non-terminal, non-held jobs
	// (0 = unlimited).
	MaxActivePerOwner int
	// SubmitRate is the per-owner token-bucket refill rate in submits
	// per second (0 = unlimited).
	SubmitRate float64
	// SubmitBurst is the token-bucket depth: how many submits an owner
	// may burst above the steady rate (minimum 1 when SubmitRate > 0).
	SubmitBurst int
	// MaxPayloadBytes caps the executable+stdin bytes of one submit
	// (0 = unlimited).
	MaxPayloadBytes int
	// MyProxy binds owners to the MyProxy accounts their proxies are
	// proactively renewed from (credmgr.Monitor reads the bindings via
	// Agent.MyProxyBinding). Owners without an entry fall back to
	// MyProxyDefault.
	MyProxy map[string]MyProxyBinding
	// MyProxyDefault, when non-nil, is the renewal binding for owners
	// not named in MyProxy.
	MyProxyDefault *MyProxyBinding
}

// MyProxyBinding names the MyProxy account one owner's short-lived proxies
// are renewed from. The binding lives in agent configuration (not credmgr)
// so serve-flag wiring and the monitor share one source of truth.
type MyProxyBinding struct {
	// Addr is the MyProxy server address; empty means the monitor's
	// default server.
	Addr string
	// User and Pass authenticate the renewal fetch.
	User string
	Pass string
}

// MyProxyBinding returns owner's credential-renewal binding, falling back
// to the tenancy-wide default; ok is false when neither is configured.
func (a *Agent) MyProxyBinding(owner string) (MyProxyBinding, bool) {
	if b, ok := a.cfg.Tenancy.MyProxy[owner]; ok {
		return b, true
	}
	if d := a.cfg.Tenancy.MyProxyDefault; d != nil {
		return *d, true
	}
	return MyProxyBinding{}, false
}

// ownerShard is one owner's stripe of the job table: its own lock, its
// own job indexes, its own journal partition, and its own admission
// (token bucket) state. One owner's burst contends only on its shard.
type ownerShard struct {
	owner string
	store *journal.Store // the journal partition owner hashes to

	// Admission counters are resolved once per shard: a hostile owner
	// spinning on rejections must not serialize every attempt through
	// the metrics registry lock.
	admitted *obs.Counter
	rejected map[string]*obs.Counter // by rejection reason

	mu       sync.Mutex
	jobs     map[string]*jobRecord // all of this owner's jobs by ID
	active   map[string]*jobRecord // the non-terminal subset
	tokens   float64               // token-bucket level
	lastFill time.Time             // last token refill instant
}

// shard returns (creating if needed) owner's shard, opening its journal
// partition on first use.
func (a *Agent) shard(owner string) (*ownerShard, error) {
	a.shardMu.RLock()
	sh := a.shards[owner]
	a.shardMu.RUnlock()
	if sh != nil {
		return sh, nil
	}
	a.shardMu.Lock()
	defer a.shardMu.Unlock()
	if sh = a.shards[owner]; sh != nil {
		return sh, nil
	}
	st, err := a.parts.PartitionFor(owner)
	if err != nil {
		return nil, err
	}
	burst := float64(a.cfg.Tenancy.SubmitBurst)
	if burst < 1 {
		burst = 1
	}
	sh = &ownerShard{
		owner:    owner,
		store:    st,
		admitted: a.obs.Counter(obs.Key("agent_owner_admitted_total", "owner", owner)),
		rejected: make(map[string]*obs.Counter, 4),
		jobs:     make(map[string]*jobRecord),
		active:   make(map[string]*jobRecord),
		tokens:   burst,
		lastFill: time.Now(),
	}
	for _, reason := range []string{"payload", "queued", "active", "rate"} {
		sh.rejected[reason] = a.obs.Counter(obs.Key("agent_owner_rejected_total", "owner", owner, "reason", reason))
	}
	a.shards[owner] = sh
	return sh, nil
}

// shardIfPresent returns owner's shard or nil, without creating one.
func (a *Agent) shardIfPresent(owner string) *ownerShard {
	a.shardMu.RLock()
	defer a.shardMu.RUnlock()
	return a.shards[owner]
}

// allShards snapshots the shard list (unordered).
func (a *Agent) allShards() []*ownerShard {
	a.shardMu.RLock()
	defer a.shardMu.RUnlock()
	out := make([]*ownerShard, 0, len(a.shards))
	for _, sh := range a.shards {
		out = append(out, sh)
	}
	return out
}

// job resolves a job ID through the global index.
func (a *Agent) job(id string) (*jobRecord, bool) {
	a.idMu.RLock()
	rec, ok := a.ids[id]
	a.idMu.RUnlock()
	return rec, ok
}

// indexJob makes rec visible: global ID index plus its owner's shard.
func (a *Agent) indexJob(sh *ownerShard, rec *jobRecord) {
	a.idMu.Lock()
	a.ids[rec.ID] = rec
	a.idMu.Unlock()
	sh.mu.Lock()
	sh.jobs[rec.ID] = rec
	if !rec.State.Terminal() {
		sh.active[rec.ID] = rec
	}
	sh.mu.Unlock()
}

// admit applies the per-owner admission policy to one submit: payload
// cap, queued/active quotas, then the token bucket. Rejections carry
// ErrQuotaExceeded / ErrRateLimited (faultclass Permanent) and count in
// agent_owner_rejected_total{owner,reason}.
func (a *Agent) admit(sh *ownerShard, payload int) error {
	t := a.cfg.Tenancy
	reject := func(reason string, err error) error {
		sh.rejected[reason].Inc()
		return faultclass.New(faultclass.Permanent, err)
	}
	if t.MaxPayloadBytes > 0 && payload > t.MaxPayloadBytes {
		return reject("payload", fmt.Errorf("condorg: %w: owner %q payload %d bytes exceeds the %d-byte cap",
			ErrQuotaExceeded, sh.owner, payload, t.MaxPayloadBytes))
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if t.MaxQueuedPerOwner > 0 && len(sh.active) >= t.MaxQueuedPerOwner {
		return reject("queued", fmt.Errorf("condorg: %w: owner %q has %d jobs queued (max %d)",
			ErrQuotaExceeded, sh.owner, len(sh.active), t.MaxQueuedPerOwner))
	}
	if t.MaxActivePerOwner > 0 {
		n := 0
		for _, rec := range sh.active {
			rec.mu.Lock()
			held := rec.State == Held
			rec.mu.Unlock()
			if !held {
				if n++; n >= t.MaxActivePerOwner {
					break
				}
			}
		}
		if n >= t.MaxActivePerOwner {
			return reject("active", fmt.Errorf("condorg: %w: owner %q has %d active jobs (max %d)",
				ErrQuotaExceeded, sh.owner, n, t.MaxActivePerOwner))
		}
	}
	if t.SubmitRate > 0 {
		burst := float64(t.SubmitBurst)
		if burst < 1 {
			burst = 1
		}
		now := time.Now()
		sh.tokens = min(burst, sh.tokens+now.Sub(sh.lastFill).Seconds()*t.SubmitRate)
		sh.lastFill = now
		if sh.tokens < 1 {
			return reject("rate", fmt.Errorf("condorg: %w: owner %q exceeded %.3g submits/s (burst %d)",
				ErrRateLimited, sh.owner, t.SubmitRate, t.SubmitBurst))
		}
		sh.tokens--
	}
	sh.admitted.Inc()
	return nil
}
