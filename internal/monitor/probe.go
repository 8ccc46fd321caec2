package monitor

import (
	"fmt"

	"wadc/internal/netmodel"
	"wadc/internal/obs"
	"wadc/internal/sim"
	"wadc/internal/trace"
)

// This file implements ProbeNetwork, the high-fidelity probe mode: instead
// of charging the requester a computed round-trip time, an actual pair of
// 16 KB messages is routed through the endpoints' NICs by per-host monitor
// demons (the architecture of user-level monitoring systems like Komodo and
// the Network Weather Service that the paper cites). Probes therefore
// contend with data traffic and are measured passively like any other large
// transfer.

// probePort is the mailbox every monitor demon listens on.
const probePort = "monitor"

// probe message payloads.
type (
	// probeExec asks the demon at the target host to measure its link to
	// Peer and report back to ReplyTo.
	probeExec struct {
		Peer    netmodel.HostID
		ReplyTo netmodel.HostID
		Seq     int64
	}
	// probePing is the 16 KB measurement payload; the receiving demon
	// echoes a probePong of the same size.
	probePing struct {
		Origin netmodel.HostID
		Seq    int64
	}
	probePong struct {
		Seq int64
	}
	// probeReport returns the measured bandwidth to the requester.
	probeReport struct {
		A, B netmodel.HostID
		BW   trace.Bandwidth
		At   sim.Time
		Seq  int64
	}
)

// EnableNetworkProbes switches the system to ProbeNetwork mode and spawns a
// monitor demon on every host currently in the network. It must be called
// before the simulation starts issuing probes.
func (s *System) EnableNetworkProbes() {
	if s.demons {
		return
	}
	s.demons = true
	s.cfg.ProbeMode = ProbeNetwork
	for i := 0; i < s.net.NumHosts(); i++ {
		host := s.net.Host(netmodel.HostID(i))
		demon := s.net.Kernel().Spawn(fmt.Sprintf("monitor-demon-%s", host.Name()), func(p *sim.Proc) {
			s.demonLoop(p, host)
		})
		// Probe traffic is network measurement: its demon time belongs to
		// the netmodel slice of the perf report, not to any one tenant.
		demon.SetSubsystem(obs.SubsysNet)
	}
}

// demonLoop serves probe requests and echoes pings forever (the kernel
// unwinds it at the end of the run).
func (s *System) demonLoop(p *sim.Proc, host *netmodel.Host) {
	mb := host.Port(probePort)
	for {
		msg := mb.Recv(p).(*netmodel.Message)
		switch req := msg.Payload.(type) {
		case probeExec:
			s.executeProbe(p, host, req)
		case probePing:
			// Echo the same volume back; passive monitoring measures it at
			// both endpoints.
			s.net.Send(p, &netmodel.Message{
				Src: host.ID(), Dst: req.Origin, Port: probePort,
				Size: DefaultProbeSize, Prio: sim.PriorityData,
				Payload: probePong{Seq: req.Seq},
			})
		case probePong:
			// Delivered to the pending executeProbe via the same mailbox:
			// stash it for the in-progress exec (demons handle one exec at
			// a time; see executeProbe).
			s.stashPong(host.ID(), req)
		}
	}
}

// executeProbe sends the ping and waits for the pong, then reports the
// passively measured bandwidth back to the requester.
func (s *System) executeProbe(p *sim.Proc, host *netmodel.Host, req probeExec) {
	s.net.Send(p, &netmodel.Message{
		Src: host.ID(), Dst: req.Peer, Port: probePort,
		Size: DefaultProbeSize, Prio: sim.PriorityData,
		Payload: probePing{Origin: host.ID(), Seq: req.Seq},
	})
	// Wait for the matching pong; other messages arriving meanwhile are
	// handled inline (pings echoed, execs deferred).
	mb := host.Port(probePort)
	var deferred []*netmodel.Message
	for {
		if pong, ok := s.takePong(host.ID(), req.Seq); ok {
			_ = pong
			break
		}
		msg := mb.Recv(p).(*netmodel.Message)
		switch m := msg.Payload.(type) {
		case probePong:
			s.stashPong(host.ID(), m)
		case probePing:
			s.net.Send(p, &netmodel.Message{
				Src: host.ID(), Dst: m.Origin, Port: probePort,
				Size: DefaultProbeSize, Prio: sim.PriorityData,
				Payload: probePong{Seq: m.Seq},
			})
		case probeExec:
			deferred = append(deferred, msg)
		}
	}
	for _, d := range deferred {
		mb.Send(d, sim.PriorityControl)
	}
	// Passive monitoring has recorded the measurement at both endpoints;
	// read it from this host's cache and report it to the requester.
	e, ok := s.Cache(host.ID()).LookupAny(host.ID(), req.Peer)
	if !ok {
		// No measurement landed (the echo was lost): report a zero bound so
		// the requester does not trust the link.
		e = Entry{A: host.ID(), B: req.Peer, BW: 0, At: s.net.Kernel().Now(), Prov: ProvStaleFallback}
	}
	if req.ReplyTo == host.ID() {
		return // requester is local: the cache entry is already here
	}
	s.net.Send(p, &netmodel.Message{
		Src: host.ID(), Dst: req.ReplyTo, Port: probePort + "-reports",
		Size: 256, Prio: sim.PriorityControl,
		Payload: probeReport{A: e.A, B: e.B, BW: e.BW, At: e.At, Seq: req.Seq},
	})
}

// stashPong records an arrived pong for a pending exec.
func (s *System) stashPong(h netmodel.HostID, pong probePong) {
	if s.pongs == nil {
		s.pongs = make(map[pongKey]bool)
	}
	s.pongs[pongKey{h, pong.Seq}] = true
}

// takePong consumes a stashed pong if present.
func (s *System) takePong(h netmodel.HostID, seq int64) (probePong, bool) {
	k := pongKey{h, seq}
	if s.pongs[k] {
		delete(s.pongs, k)
		return probePong{Seq: seq}, true
	}
	return probePong{}, false
}

type pongKey struct {
	h   netmodel.HostID
	seq int64
}

// networkProbe performs a ProbeNetwork-mode measurement on behalf of process
// p at viewer: it asks the demon at host a to measure (a, b) and waits for
// the report (or, when the viewer is an endpoint, for the passive
// measurement to land in its own cache).
func (s *System) networkProbe(p *sim.Proc, viewer, a, b netmodel.HostID) trace.Bandwidth {
	s.probeSeq++
	seq := s.probeSeq
	reports := s.net.Host(viewer).Port(probePort + "-reports")
	s.net.Send(p, &netmodel.Message{
		Src: viewer, Dst: a, Port: probePort,
		Size: 256, Prio: sim.PriorityControl,
		Payload: probeExec{Peer: b, ReplyTo: viewer, Seq: seq},
	})
	if viewer == a {
		// The demon shares our host; its passive measurement lands in our
		// own cache. Wait (in small steps) until a measurement newer than
		// the request appears.
		start := s.net.Kernel().Now()
		for {
			if e, ok := s.Cache(viewer).LookupAny(a, b); ok && e.At >= start {
				return e.BW
			}
			p.Hold(netmodel.DefaultStartup)
		}
	}
	for {
		msg := reports.Recv(p).(*netmodel.Message)
		if rep, ok := msg.Payload.(probeReport); ok {
			s.Cache(viewer).Record(rep.A, rep.B, rep.BW, rep.At, ProvFreshCache)
			if rep.Seq == seq {
				return rep.BW
			}
		}
	}
}
