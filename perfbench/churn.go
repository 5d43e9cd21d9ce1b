package main

import (
	"fmt"
	"math/rand"
	"time"

	"vignat/internal/core"
	"vignat/internal/firewall"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nf"
	"vignat/internal/policer"
)

// --- gateway-churn ---------------------------------------------------
//
// The examples/homegateway chain (firewall → policer → LB → NAT) with
// every table at 65,535 entries and sessions arriving and expiring at
// equal rates, so the tables sit near a steady high occupancy.

const (
	gwCapacity = 65535
	gwTexp     = 2 * time.Second
	gwTick     = 2 * time.Millisecond // virtual time per round
	gwNewMean  = 44                   // new sessions per round: ≈22k/s
	gwHosts    = 2048
	gwDNS      = 2 // VIP queries per round
	gwJunk     = 2 // unsolicited inbound frames per round
	gwSurgeIn  = 4 // 1518-byte frames per round into the over-rate subscriber
	gwRate     = 256 << 10
	gwBurst    = 64 << 10
	gwHorizon  = 256 // rounds a session's schedule may span
	// gwSetup is set-up's virtual length: past Texp plus the longest
	// session, so arrivals and expiries balance before measuring.
	gwSetup = 2500 * time.Millisecond
)

var (
	gwExtIP     = core.IPv4(203, 0, 113, 77)
	gwVIP       = core.IPv4(10, 53, 53, 53)
	gwResolvers = []flow.Addr{core.IPv4(9, 9, 9, 9), core.IPv4(9, 9, 9, 10), core.IPv4(9, 9, 9, 11), core.IPv4(9, 9, 9, 12)}
	gwSurgeHost = core.IPv4(192, 168, 250, 250)
	gwSurgeSrv  = flow.ID{SrcIP: gwSurgeHost, SrcPort: 50000, DstIP: core.IPv4(151, 101, 1, 1), DstPort: 443, Proto: flow.TCP}
	// Frame sizes 64/594/1518 in the ratio 7:4:1.
	gwSizes = [12]int{64, 64, 64, 64, 64, 64, 64, 594, 594, 594, 594, 1518}
)

func buildGateway(clock libvig.Clock) (*built, error) {
	cfg := core.DefaultConfig(gwExtIP)
	cfg.Capacity, cfg.Timeout = gwCapacity, gwTexp
	n, err := nat.New(cfg, clock)
	if err != nil {
		return nil, err
	}
	fw, err := firewall.New(gwCapacity, gwTexp, clock)
	if err != nil {
		return nil, err
	}
	pol, err := policer.New(policer.Config{Rate: gwRate, Burst: gwBurst, Capacity: gwCapacity, Timeout: gwTexp}, clock)
	if err != nil {
		return nil, err
	}
	bal, err := lb.New(lb.Config{
		VIP: gwVIP, VIPPort: 53, Capacity: gwCapacity, Timeout: gwTexp,
		MaxBackends: len(gwResolvers), ClientsInternal: true, Passthrough: true,
	}, clock)
	if err != nil {
		return nil, err
	}
	for _, ip := range gwResolvers {
		if _, err := bal.AddBackend(ip, clock.Now()); err != nil {
			return nil, err
		}
	}
	elems := []nf.NF{firewall.AsNF(fw), policer.AsNF(pol), lb.AsNF(bal), nat.AsNF(n)}
	chain, err := nf.NewChain("gateway", elems...)
	if err != nil {
		return nil, err
	}
	return &built{top: chain, chain: chain, nat: n, elems: elems}, nil
}

var gatewayChurn = memWorkload{
	name:       "gateway-churn",
	cache:      true, // the chain declines it; nothing is cached
	setups:     3,
	build:      buildGateway,
	newTraffic: newGwTraffic,
	texp:       gwTexp,
	extIP:      gwExtIP,
	window:     500,
}

const (
	sessWeb uint8 = iota
	sessDNS
	sessSurge
)

const (
	kindOut uint8 = iota
	kindIn
	kindJunk
)

type gwSession struct {
	intKey  flow.ID // as the host sends it (DNS: to the VIP)
	extPort uint16
	backend flow.Addr // DNS: the resolver the balancer chose
	kind    uint8
	ok      bool // the first packet went out; replies may follow
}

type gwEvent struct {
	sess int32
	in   bool
	last bool
}

type gwTraffic struct {
	rng      *rand.Rand
	seq      uint32
	now      libvig.Time
	sess     []gwSession
	free     []int32
	retire   []int32 // slots whose last packet is in the current round
	sched    [gwHorizon][]gwEvent
	hostPort [gwHosts]uint16
	nat      *natCheck
	lb       *lbCheck
	pol      *polCheck
}

func newGwTraffic(seed int64) traffic {
	t := &gwTraffic{
		rng: rand.New(rand.NewSource(seed)),
		now: 1,
		nat: newNATCheck(gwCapacity, gwTexp.Nanoseconds(), gwExtIP, core.DefaultConfig(gwExtIP).PortBase),
		lb:  newLBCheck(gwVIP, 53, gwTexp.Nanoseconds(), gwResolvers),
		pol: newPolCheck(gwRate, gwBurst, gwTexp.Nanoseconds()),
	}
	for h := range t.hostPort {
		t.hostPort[h] = uint16(1024 + t.rng.Intn(30000))
	}
	t.sess = append(t.sess, gwSession{intKey: gwSurgeSrv, kind: sessSurge})
	return t
}

// open starts a session of the given kind from a random host and
// schedules its packets.
func (t *gwTraffic) open(kind uint8) {
	h := t.rng.Intn(gwHosts)
	t.hostPort[h]++
	if t.hostPort[h] < 1024 {
		t.hostPort[h] = 1024
	}
	s := gwSession{kind: kind, intKey: flow.ID{
		SrcIP: core.IPv4(192, 168, 1, 0) + flow.Addr(h), SrcPort: t.hostPort[h],
	}}
	if kind == sessDNS {
		s.intKey.DstIP, s.intKey.DstPort, s.intKey.Proto = gwVIP, 53, flow.UDP
	} else {
		s.intKey.DstIP = core.IPv4(23, byte(t.rng.Intn(16)), byte(t.rng.Intn(256)), byte(1+t.rng.Intn(254)))
		s.intKey.DstPort, s.intKey.Proto = 443, flow.TCP
		if t.rng.Intn(2) == 0 {
			s.intKey.DstPort, s.intKey.Proto = 3478, flow.UDP
		}
	}
	var idx int32
	if n := len(t.free); n > 0 {
		idx, t.free = t.free[n-1], t.free[:n-1]
		t.sess[idx] = s
	} else {
		idx = int32(len(t.sess))
		t.sess = append(t.sess, s)
	}
	at := func(d int, in, last bool) {
		b := &t.sched[(int(t.seq)+d)%gwHorizon]
		*b = append(*b, gwEvent{sess: idx, in: in, last: last})
	}
	at(0, false, false)
	if kind == sessDNS {
		at(1+t.rng.Intn(10), true, true)
		return
	}
	a := 1 + t.rng.Intn(25)
	b := a + 1 + t.rng.Intn(75)
	at(a, true, false)
	at(b, false, false)
	at(b+1+t.rng.Intn(25), true, true)
}

func (t *gwTraffic) size() int { return gwSizes[t.rng.Intn(len(gwSizes))] }

// reply is the frame the far end sends back on session s.
func (t *gwTraffic) reply(s *gwSession) flow.ID {
	k := s.intKey
	src := k.DstIP
	if s.kind == sessDNS {
		src = s.backend
	}
	return flow.ID{SrcIP: src, SrcPort: k.DstPort, DstIP: gwExtIP, DstPort: s.extPort, Proto: k.Proto}
}

func (t *gwTraffic) next(r *round) bool {
	for _, i := range t.retire {
		t.free = append(t.free, i)
	}
	t.retire = t.retire[:0]
	t.seq++
	t.now += gwTick.Nanoseconds()
	r.seq, r.now, r.pkts = t.seq, t.now, r.pkts[:0]

	// The over-rate subscriber: one ACK out, a train of full-size
	// segments in.
	r.pkts = append(r.pkts, pkt{id: gwSurgeSrv, size: 64, in: true, kind: kindOut})
	if t.sess[0].ok {
		for k := 0; k < gwSurgeIn; k++ {
			r.pkts = append(r.pkts, pkt{id: t.reply(&t.sess[0]), size: 1518, kind: kindIn})
		}
	}
	for n := t.rng.Intn(2*gwNewMean + 1); n > 0; n-- {
		t.open(sessWeb)
	}
	for n := 0; n < gwDNS; n++ {
		t.open(sessDNS)
	}
	bucket := &t.sched[int(t.seq)%gwHorizon]
	for _, ev := range *bucket {
		s := &t.sess[ev.sess]
		if ev.last {
			t.retire = append(t.retire, ev.sess)
		}
		switch {
		case !ev.in:
			r.pkts = append(r.pkts, pkt{id: s.intKey, size: t.size(), in: true, kind: kindOut, sess: ev.sess})
		case s.ok:
			r.pkts = append(r.pkts, pkt{id: t.reply(s), size: t.size(), kind: kindIn, sess: ev.sess})
		}
	}
	*bucket = (*bucket)[:0]
	for n := 0; n < gwJunk; n++ {
		id := flow.ID{
			SrcIP: core.IPv4(198, 51, 100, byte(t.rng.Intn(256))), SrcPort: uint16(1 + t.rng.Intn(65535)),
			DstIP: gwExtIP, DstPort: uint16(1 + t.rng.Intn(65535)), Proto: flow.UDP,
		}
		r.pkts = append(r.pkts, pkt{id: id, size: 64, kind: kindJunk, sess: -1})
	}
	return time.Duration(t.now) < gwSetup
}

func (t *gwTraffic) check(r *round, out []outcome, bad []bool) int {
	failed := 0
	for pass := 0; pass < 2; pass++ { // the engine processes internal frames first
		for i := range r.pkts {
			p := &r.pkts[i]
			if p.in != (pass == 0) {
				continue
			}
			err := t.checkOne(r.now, p, out[i])
			if err == nil && bad[i] {
				err = fmt.Errorf("bad checksum or duplicate output for %v", p.id)
			}
			if err != nil {
				failed++
				report(fmt.Errorf("round %d pkt %d: %w", r.seq, i, err))
			}
		}
	}
	return failed
}

func (t *gwTraffic) checkOne(now libvig.Time, p *pkt, got outcome) error {
	if p.kind == kindJunk {
		if got.fwd {
			return fmt.Errorf("unsolicited %v forwarded as %v", p.id, got.id)
		}
		return t.nat.step(endpointKey(p.id.SrcIP, p.id.SrcPort), p.id, false, now, got)
	}
	s := &t.sess[p.sess]
	key := endpointKey(s.intKey.SrcIP, s.intKey.SrcPort)
	if p.in { // outbound
		natID := p.id
		if s.kind == sessDNS {
			v, tuple := lb.VerdictDrop, flow.ID{}
			if got.fwd {
				v, tuple = lb.VerdictToBackend, p.id
				tuple.DstIP = got.id.DstIP
				natID = tuple
			}
			if err := t.lb.step(key, p.id, true, now, v, tuple); err != nil {
				return err
			}
		}
		if err := t.nat.step(key, natID, true, now, got); err != nil {
			return err
		}
		if !s.ok && got.fwd {
			s.ok, s.extPort, s.backend = true, got.id.SrcPort, got.id.DstIP
		}
		return nil
	}
	// Inbound reply: NAT → LB → policer → firewall. The policer oracle
	// decides whether it may leave; a packet it clipped was still
	// translated by the NAT (and restored by the balancer), so those
	// oracles are stepped with the output the spec demands of them.
	if got.fwd && got.toExt {
		return fmt.Errorf("reply %v left on the external port", p.id)
	}
	host := s.intKey.SrcIP
	if err := t.pol.ingress(host, p.size, now, got.fwd); err != nil {
		return err
	}
	inward := flow.ID{SrcIP: p.id.SrcIP, SrcPort: p.id.SrcPort, DstIP: host, DstPort: s.intKey.SrcPort, Proto: p.id.Proto}
	natOut := outcome{fwd: true, id: inward}
	if s.kind == sessDNS {
		restored := inward
		restored.SrcIP = gwVIP
		tuple := restored
		if got.fwd {
			tuple = got.id
		}
		if err := t.lb.step(key, inward, false, now, lb.VerdictToClient, tuple); err != nil {
			return err
		}
	} else if got.fwd {
		natOut.id = got.id
	}
	return t.nat.step(key, p.id, false, now, natOut)
}
