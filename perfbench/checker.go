package main

import (
	"fmt"

	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat/stateless"
	"vignat/internal/policer"
	"vignat/internal/vigor/spec"
)

// The spec oracles keep their state in plain maps and expire by
// scanning all of it on every step, so one oracle over 60k sessions
// costs a 60k-entry scan per packet. RFC 3022 state is per session,
// and so is the balancer's sticky state and the policer's bucket per
// subscriber: a partition of the sessions into groups, each with its
// own oracle, runs the same spec on every packet at a cost of the
// group's size. Only two facts span groups, and the harness checks
// them itself: the table never fills (the workloads stay below
// capacity, and a refused session fails its group's oracle, whose
// capacity is the whole table's), and no external port is bound to
// two live sessions (portHolds below).

const oracleGroups = 16384

// groupOf spreads session keys over the oracle groups.
func groupOf(key uint64) int {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return int(key % oracleGroups)
}

// endpointKey is the group key of the session whose internal side is
// ip:port.
func endpointKey(ip flow.Addr, port uint16) uint64 { return uint64(ip)<<16 | uint64(port) }

// outcome is what became of one input frame: whether it left the
// engine, on which port, and with which 5-tuple.
type outcome struct {
	fwd   bool
	toExt bool
	id    flow.ID
}

// natVerdict maps an outcome to the NAT's directional verdict.
func natVerdict(o outcome) stateless.Verdict {
	switch {
	case !o.fwd:
		return stateless.VerdictDrop
	case o.toExt:
		return stateless.VerdictToExternal
	}
	return stateless.VerdictToInternal
}

type portHold struct {
	key  flow.ID
	last libvig.Time
	live bool
}

// natCheck is the RFC 3022 check: spec.Oracle per group plus the
// global port-uniqueness check.
type natCheck struct {
	groups []*spec.Oracle
	ports  []portHold
	texp   libvig.Time
}

func newNATCheck(capacity int, texp libvig.Time, extIP flow.Addr, portBase uint16) *natCheck {
	c := &natCheck{groups: make([]*spec.Oracle, oracleGroups), ports: make([]portHold, 1<<16), texp: texp}
	for i := range c.groups {
		c.groups[i] = spec.NewOracle(capacity, texp, extIP, portBase, capacity)
	}
	return c
}

// step checks one packet of the session with group key key. id is the
// tuple the NAT received; got is what left it.
func (c *natCheck) step(key uint64, id flow.ID, fromInternal bool, now libvig.Time, got outcome) error {
	err := c.groups[groupOf(key)].Step(id, fromInternal, true, now,
		spec.Observed{Verdict: natVerdict(got), Tuple: got.id})
	if err != nil || !got.fwd {
		return err
	}
	if fromInternal {
		p := &c.ports[got.id.SrcPort]
		if p.live && p.key != id && p.last+c.texp > now {
			return fmt.Errorf("external port %d given to %v while %v holds it", got.id.SrcPort, id, p.key)
		}
		*p = portHold{key: id, last: now, live: true}
		return nil
	}
	if p := &c.ports[id.DstPort]; p.live {
		p.last = now
	}
	return nil
}

// lbCheck is the balancer check: spec.LBOracle per group.
type lbCheck struct{ groups []*spec.LBOracle }

func newLBCheck(vip flow.Addr, vipPort uint16, texp libvig.Time, backends []flow.Addr) *lbCheck {
	c := &lbCheck{groups: make([]*spec.LBOracle, oracleGroups)}
	for i := range c.groups {
		c.groups[i] = spec.NewLBOracle(vip, vipPort, 0, texp, true)
		for _, b := range backends {
			_ = c.groups[i].AddBackend(b)
		}
	}
	return c
}

func (c *lbCheck) step(key uint64, id flow.ID, fromClient bool, now libvig.Time, v lb.Verdict, tuple flow.ID) error {
	return c.groups[groupOf(key)].Step(id, fromClient, true, now, spec.LBObserved{Verdict: v, Tuple: tuple})
}

// polCheck is the policer check: spec.PolicerOracle per group of
// subscribers.
type polCheck struct{ groups []*spec.PolicerOracle }

func newPolCheck(rate, burst int64, texp libvig.Time) *polCheck {
	c := &polCheck{groups: make([]*spec.PolicerOracle, oracleGroups)}
	for i := range c.groups {
		c.groups[i] = spec.NewPolicerOracle(rate, burst, 0, texp)
	}
	return c
}

// ingress checks one metered packet for subscriber client.
func (c *polCheck) ingress(client flow.Addr, bytes int, now libvig.Time, forwarded bool) error {
	got := policer.VerdictConform
	if !forwarded {
		got = policer.VerdictDrop
	}
	return c.groups[groupOf(uint64(client))].Step(client, bytes, true, true, now, got)
}
