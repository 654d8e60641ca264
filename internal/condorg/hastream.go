package condorg

import (
	"encoding/json"
	"time"

	"condorg/internal/journal"
)

// Journal replication over the control plane: a standby (standby.go) tails
// each owner partition's hash chain — bootstrapping from journal.snapshot,
// then long-polling journal.stream, each request piggybacking the
// follower's durable position as the acknowledgement that arms the
// primary's synchronous-replication wait (HAOptions.Enabled). Every reply
// reports the primary's partition count, which the follower's must match.

// CtlJournalSnapshotResp is one partition's full key space — images and
// unfolded patches — plus the chain head it is valid at: a follower
// installs it verbatim and tails the partition's stream from Head.
type CtlJournalSnapshotResp struct {
	journal.Snapshot
	Partitions int `json:"partitions"`
}

// CtlJournalStreamReq asks for one partition's chained deltas after a
// position (journal.snapshot reads only Part). WaitMS long-polls
// server-side until the head advances (bounded so one RPC never outlives
// the wire timeout); Ack is the follower's durable position, if it has one.
type CtlJournalStreamReq struct {
	Part   int     `json:"part"`
	After  uint64  `json:"after"`
	Max    int     `json:"max,omitempty"`
	WaitMS int     `json:"wait_ms,omitempty"`
	Ack    *uint64 `json:"ack,omitempty"`
}

// CtlJournalStreamResp carries the deltas. Reset tells a follower it has
// fallen behind the partition's stream ring (or diverged) and must
// re-bootstrap it from a snapshot.
type CtlJournalStreamResp struct {
	Records    []journal.StreamRecord `json:"records,omitempty"`
	Head       journal.ChainState     `json:"head"`
	Reset      bool                   `json:"reset,omitempty"`
	Partitions int                    `json:"partitions"`
}

// replicaPartition decodes a replication request and resolves the
// partition store it names.
func (c *ControlServer) replicaPartition(owner, op string, body json.RawMessage) (CtlJournalStreamReq, *journal.Store, error) {
	var req CtlJournalStreamReq
	if !c.isAdmin(owner) {
		// The journal is the whole multi-tenant queue — replication peers
		// are admins, tenants are not.
		return req, nil, ctlForbidden(owner, op)
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return req, nil, ctlBadRequest("condorg: bad %s body: %v", op, err)
		}
	}
	st, err := c.agent.parts.Partition(req.Part)
	if err != nil {
		return req, nil, ctlBadRequest("condorg: %s: %v", op, err)
	}
	return req, st, nil
}

func (c *ControlServer) opJournalSnapshot(owner string, body json.RawMessage) (any, error) {
	_, st, err := c.replicaPartition(owner, "journal.snapshot", body)
	if err != nil {
		return nil, err
	}
	return CtlJournalSnapshotResp{Snapshot: st.SnapshotDump(), Partitions: c.agent.parts.Partitions()}, nil
}

func (c *ControlServer) opJournalStream(owner string, body json.RawMessage) (any, error) {
	req, st, err := c.replicaPartition(owner, "journal.stream", body)
	if err != nil {
		return nil, err
	}
	// A tailing follower acks on every poll, position 0 of a never-written
	// partition included: its first write must already wait for the follower.
	if req.Ack != nil {
		st.FollowerAck(*req.Ack)
	}
	if req.WaitMS > 0 {
		st.WaitStream(req.After, time.Duration(req.WaitMS)*time.Millisecond)
	}
	recs, head, reset := st.StreamSince(req.After, req.Max)
	return CtlJournalStreamResp{Records: recs, Head: head, Reset: reset, Partitions: c.agent.parts.Partitions()}, nil
}

// JournalSnapshot fetches one partition's full snapshot for follower
// bootstrap.
func (c *ControlClient) JournalSnapshot(part int) (CtlJournalSnapshotResp, error) {
	var resp CtlJournalSnapshotResp
	err := c.call("journal.snapshot", CtlJournalStreamReq{Part: part}, &resp)
	return resp, err
}

// JournalStream fetches (long-polling) one partition's next chained deltas.
func (c *ControlClient) JournalStream(req CtlJournalStreamReq) (CtlJournalStreamResp, error) {
	var resp CtlJournalStreamResp
	err := c.call("journal.stream", req, &resp)
	return resp, err
}
