package condorg

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/journal"
	"condorg/internal/wire"
)

// StandbyConfig configures a hot-standby follower.
type StandbyConfig struct {
	// Primary is the primary agent's control endpoint address.
	Primary string
	// StateDir is the standby's own state root; the replicated queue
	// lands in StateDir/queue/parts, and a takeover starts the agent here.
	StateDir string
	// LeaseTTL is how long the primary may be unreachable before the
	// standby declares it dead and signals TakeoverCh (default 3s).
	LeaseTTL time.Duration
	// Poll bounds one long-poll stream round trip (default 1s).
	Poll time.Duration
	// Journal configures the replicated store's own durability.
	Journal journal.StoreOptions
}

// Standby is the hot half of agent failover: it tails the primary's job
// queue — one hash-chained journal stream per owner partition, all over
// one control connection and one lease — into its own partition set,
// verifying every record extends its partition's chain. Each poll
// acknowledges the standby's durable position in that partition, which
// arms the primary's synchronous-replication wait. When the primary stays
// unreachable past LeaseTTL, TakeoverCh closes; the operator (or serve
// loop) then calls Takeover to start a full Agent on the replicated
// state. Recovery resubmits in-flight jobs under their original
// SubmissionIDs, and the sites' submission dedup keeps execution
// exactly-once across the switch.
type Standby struct {
	cfg   StandbyConfig
	parts *journal.PartitionSet
	cc    *ControlClient

	stop     chan struct{}
	tails    sync.WaitGroup // the running tail loops
	takeover chan struct{}
	expired  sync.Once // closes takeover
	halted   sync.Once // closes stop

	mu          sync.Mutex
	lastContact time.Time
	lastErr     error
	fatal       error // layout mismatch: replication ended, Takeover refuses
}

// NewStandby opens the local queue and starts tailing every partition. A
// state directory that has replicated before carries its partition count
// and starts without the primary (a dead one just runs the lease out); a
// fresh one must first ask the primary for the count to pin (checkLayout).
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("condorg: standby needs the primary's control address")
	}
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("condorg: standby needs a StateDir")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = time.Second
	}
	s := &Standby{
		cfg: cfg,
		// Retries are the client's job here, not the wire layer's: the
		// lease clock must see every failure promptly.
		cc: &ControlClient{wc: wire.Dial(cfg.Primary, wire.ClientConfig{
			ServerName: ControlService,
			Timeout:    cfg.Poll + 2*time.Second,
			Retries:    -1,
		})},
		stop:        make(chan struct{}),
		takeover:    make(chan struct{}),
		lastContact: time.Now(),
	}
	n := journal.PinnedPartitions(filepath.Join(cfg.StateDir, "queue", "parts"))
	if n == 0 {
		// Asked only for the partition count; acknowledges nothing.
		hello, err := s.cc.JournalStream(CtlJournalStreamReq{Max: 1})
		if err != nil {
			s.cc.Close()
			return nil, fmt.Errorf("condorg: standby cannot learn the journal layout of the primary at %s: %w", cfg.Primary, err)
		}
		n = hello.Partitions
	}
	var err error
	if s.parts, err = openQueue(cfg.StateDir, n, cfg.Journal); err != nil {
		s.cc.Close()
		return nil, err
	}
	stores := make([]*journal.Store, s.parts.Partitions())
	for part := range stores {
		if stores[part], err = s.parts.Partition(part); err != nil {
			s.Close()
			return nil, err
		}
	}
	for part, st := range stores {
		s.tails.Add(1)
		go func() {
			defer s.tails.Done()
			s.tail(part, st)
		}()
	}
	return s, nil
}

// checkLayout refuses (Permanent) to replicate a primary whose partition
// count differs from the local queue's pin: a takeover would look for
// owners in other chains than the primary hashed them to. Both counts are
// fixed on disk, so the mismatch ends replication for good (TakeoverCh).
func (s *Standby) checkLayout(primary int) error {
	local := s.parts.Partitions()
	if local == primary {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fatal = faultclass.New(faultclass.Permanent, fmt.Errorf(
		"condorg: standby queue under %s is pinned to %d journal partitions but the primary at %s has %d; use a fresh state directory",
		s.cfg.StateDir, local, s.cfg.Primary, primary))
	return s.fatal
}

// TakeoverCh is closed once replication has ended: the primary's lease has
// expired — the standby holds the freshest state it will ever get, and the
// caller decides whether to Takeover — or checkLayout failed, which
// Takeover then reports instead of promoting.
func (s *Standby) TakeoverCh() <-chan struct{} { return s.takeover }

// LastErr returns the most recent replication error (nil while healthy).
func (s *Standby) LastErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

func (s *Standby) noteContact() {
	s.mu.Lock()
	s.lastContact = time.Now()
	s.lastErr = nil
	s.mu.Unlock()
}

// noteErr records a failed round trip and reports whether replication is
// over: the lease has run out, or the layouts can never match.
func (s *Standby) noteErr(err error) (over bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastErr = err
	return s.fatal != nil || time.Since(s.lastContact) > s.cfg.LeaseTTL
}

// tail replicates one partition until the standby stops or the lease —
// shared by all partitions — expires.
func (s *Standby) tail(part int, st *journal.Store) {
	for {
		select {
		case <-s.stop:
			return
		case <-s.takeover:
			return
		default:
		}
		err := s.tailOnce(part, st)
		if err == nil {
			continue
		}
		if s.noteErr(err) {
			s.expired.Do(func() { close(s.takeover) })
			return
		}
		// Brief backoff so a down primary isn't hammered while the
		// lease runs out.
		select {
		case <-s.stop:
			return
		case <-time.After(s.cfg.Poll / 10):
		}
	}
}

// tailOnce runs one replication round trip for one partition: long-poll for
// deltas after the local head (acknowledging it) and apply them,
// re-bootstrapping from a full snapshot when the stream cannot continue.
// Any answer from the primary renews the lease.
func (s *Standby) tailOnce(part int, st *journal.Store) error {
	after := st.ChainHead().Seq
	resp, err := s.cc.JournalStream(CtlJournalStreamReq{
		Part:   part,
		After:  after,
		Max:    256,
		WaitMS: int(s.cfg.Poll / time.Millisecond),
		Ack:    &after,
	})
	if err != nil {
		return err
	}
	s.noteContact()
	if err := s.checkLayout(resp.Partitions); err != nil {
		return err
	}
	if resp.Reset {
		return s.rebootstrap(part, st)
	}
	for _, r := range resp.Records {
		if err := st.ApplyReplica(r); err != nil {
			// A discontinuity means this copy's history no longer extends
			// the stream (e.g. the primary was itself restored); start
			// over from a snapshot rather than replicate a divergence.
			return s.rebootstrap(part, st)
		}
	}
	return nil
}

func (s *Standby) rebootstrap(part int, st *journal.Store) error {
	boot, err := s.cc.JournalSnapshot(part)
	if err != nil {
		return err
	}
	s.noteContact()
	return st.InstallSnapshot(boot.Data, boot.Head)
}

// halt stops the tail loops and waits them out.
func (s *Standby) halt() {
	s.halted.Do(func() { close(s.stop) })
	s.tails.Wait()
}

// Takeover promotes the replicated state: the tail loops stop, the local
// queue closes (recovery will re-verify every partition's chain), and a
// full Agent starts on the standby's StateDir. cfg.StateDir is overridden;
// everything else (selector, credential, retry policy, HA mode for the
// NEXT standby) is the caller's.
func (s *Standby) Takeover(cfg AgentConfig) (*Agent, error) {
	if err := s.Close(); err != nil {
		return nil, err
	}
	if s.fatal != nil { // the tail loops are gone; nothing writes it now
		return nil, s.fatal
	}
	cfg.StateDir = s.cfg.StateDir
	return NewAgent(cfg)
}

// Close stops replication without taking over.
func (s *Standby) Close() error {
	s.halt()
	s.cc.Close()
	return s.parts.Close()
}
