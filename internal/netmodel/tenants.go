package netmodel

import (
	"sort"
	"time"
)

// Per-tenant transfer accounting. The network attributes every remote
// transfer to the tenant whose process executed it (read from the kernel's
// tenant register, so the hot path needs no extra parameters). Tenant 0 —
// single-tenant runs and shared infrastructure — is deliberately not
// tracked: it would buy nothing (the aggregate counters already cover it)
// and the lazy map setup would cost single-tenant runs their zero-alloc
// budget.

// tenantStats accumulates one tenant's traffic totals.
type tenantStats struct {
	transfers int64
	bytes     int64
	busy      int64 // ns of wire occupancy (startup + payload, incl. cut time)
}

// linkTenantKey identifies one tenant's occupancy of one undirected link.
type linkTenantKey struct {
	link   [2]HostID
	tenant int32
}

// linkKey is the undirected link a<->b with its lower host ID first.
func linkKey(a, b HostID) [2]HostID {
	if a > b {
		a, b = b, a
	}
	return [2]HostID{a, b}
}

// accountTransfer records a completed remote transfer for the current tenant.
func (n *Network) accountTransfer(msg *Message, dur time.Duration) {
	t := n.k.CurrentTenant()
	if t == 0 {
		return
	}
	if n.tenantStats == nil {
		n.tenantStats = make(map[int32]*tenantStats)
	}
	st := n.tenantStats[t]
	if st == nil {
		st = &tenantStats{}
		n.tenantStats[t] = st
	}
	st.transfers++
	st.bytes += msg.Size
	st.busy += int64(dur)
	n.accountLinkBusy(msg, t, dur)
}

// accountCut records the wire time a cut transfer occupied before the link
// went dark: the tenant held both NICs for that long even though nothing was
// delivered, so contention shares must include it.
func (n *Network) accountCut(msg *Message, dur time.Duration) {
	t := n.k.CurrentTenant()
	if t == 0 {
		return
	}
	if n.tenantStats == nil {
		n.tenantStats = make(map[int32]*tenantStats)
	}
	st := n.tenantStats[t]
	if st == nil {
		st = &tenantStats{}
		n.tenantStats[t] = st
	}
	st.busy += int64(dur)
	n.accountLinkBusy(msg, t, dur)
}

func (n *Network) accountLinkBusy(msg *Message, t int32, dur time.Duration) {
	if n.linkBusy == nil {
		n.linkBusy = make(map[linkTenantKey]int64)
	}
	n.linkBusy[linkTenantKey{link: linkKey(msg.Src, msg.Dst), tenant: t}] += int64(dur)
}

// TenantTraffic is one tenant's network totals.
type TenantTraffic struct {
	Tenant    int32
	Transfers int64
	Bytes     int64
	// Busy is the total wire occupancy attributed to the tenant: startup +
	// payload time of completed transfers plus time spent on transfers that
	// were cut mid-flight.
	Busy time.Duration
}

// TenantTraffic returns per-tenant traffic totals sorted by tenant ID.
// Deterministic: same simulation, same slice.
func (n *Network) TenantTraffic() []TenantTraffic {
	out := make([]TenantTraffic, 0, len(n.tenantStats))
	for t, st := range n.tenantStats {
		out = append(out, TenantTraffic{
			Tenant:    t,
			Transfers: st.transfers,
			Bytes:     st.bytes,
			Busy:      time.Duration(st.busy),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// LinkShare is one tenant's share of one undirected link's total occupancy.
type LinkShare struct {
	A, B   HostID
	Tenant int32
	Busy   time.Duration
	// Share is Busy divided by the link's total busy time across all tenants
	// (1.0 when the tenant had the link to itself).
	Share float64
}

// LinkShares returns per-(link, tenant) contention shares sorted by
// (A, B, Tenant). This is the cross-tenant interference view: a tenant whose
// links are mostly occupied by others is being starved.
func (n *Network) LinkShares() []LinkShare {
	totals := make(map[[2]HostID]int64, len(n.linkBusy))
	for key, busy := range n.linkBusy {
		totals[key.link] += busy
	}
	out := make([]LinkShare, 0, len(n.linkBusy))
	for key, busy := range n.linkBusy {
		share := 0.0
		if tot := totals[key.link]; tot > 0 {
			share = float64(busy) / float64(tot)
		}
		out = append(out, LinkShare{
			A: key.link[0], B: key.link[1], Tenant: key.tenant,
			Busy: time.Duration(busy), Share: share,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.Tenant < b.Tenant
	})
	return out
}
