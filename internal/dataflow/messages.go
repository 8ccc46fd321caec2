package dataflow

import (
	"fmt"

	"wadc/internal/netmodel"
	"wadc/internal/plan"
)

// addr is a deliverable location: a host plus the mailbox (port) name of a
// node's current incarnation. Every relocation gives the operator a fresh
// port, so messages addressed to a previous incarnation land on the old
// host's mailbox, where a forwarder bounces them to the current address —
// the classic mobile-object forwarding-pointer scheme.
type addr struct {
	host netmodel.HostID
	port string
}

func (a addr) String() string { return fmt.Sprintf("h%d:%s", a.host, a.port) }

// basePort is a node's initial mailbox name. Tenant 0 keeps the historical
// un-prefixed names (byte-identical single-tenant telemetry); other tenants
// get a "t<id>." namespace so concurrent trees on one host cannot collide.
func basePort(tenant int32, id plan.NodeID) string {
	if tenant == 0 {
		return fmt.Sprintf("n%d", id)
	}
	return fmt.Sprintf("t%d.n%d", tenant, id)
}

// incarnationPort is the mailbox name after the node's seq-th relocation,
// namespaced like basePort.
func incarnationPort(tenant int32, id plan.NodeID, seq int) string {
	if tenant == 0 {
		return fmt.Sprintf("n%d#%d", id, seq)
	}
	return fmt.Sprintf("t%d.n%d#%d", tenant, id, seq)
}

// msgKind discriminates protocol messages.
type msgKind int

const (
	kindDemand msgKind = iota
	kindData
	kindIterReport
	kindSwitchAt
	kindMoveNotice
	// kindRetryTick is a node-local timer expiry, delivered through the
	// node's own mailbox so retries are handled in process context like any
	// other message. It never crosses the network.
	kindRetryTick
)

func (k msgKind) String() string {
	switch k {
	case kindDemand:
		return "demand"
	case kindData:
		return "data"
	case kindIterReport:
		return "iter-report"
	case kindSwitchAt:
		return "switch-at"
	case kindMoveNotice:
		return "move-notice"
	case kindRetryTick:
		return "retry-tick"
	default:
		return "unknown"
	}
}

// proposal is a new placement being propagated down the tree with demands
// (the global algorithm's change-over initiation, paper §2.2).
type proposal struct {
	id        int
	placement *plan.Placement
}

// switchOrder is the client's barrier broadcast: "switch atomically from the
// old placement to the new placement when you reach iteration iter".
type switchOrder struct {
	id        int
	iter      int
	placement *plan.Placement
}

// envelope is the payload of every dataflow message.
type envelope struct {
	kind     msgKind
	from     plan.NodeID
	fromAddr addr
	iter     int

	// demand fields
	markLater        bool // "you delivered later on the previous iteration"
	consumerCritical bool // the consumer believes it is on the critical path
	prop             *proposal

	// data fields
	bytes int64

	// switch-at
	order *switchOrder

	// iter-report: the proposal the report answers, so a late or duplicate
	// report can be matched against an already-broadcast order (recovery).
	propID int

	// retry-tick: the fetch sequence number the timer was armed for; ticks
	// whose sequence no longer matches the node's active fetch are stale.
	retrySeq int

	// move-notice: the sender relocated; fromAddr is its new address.
}
