package main

import (
	"fmt"
	"math/rand"
	"time"

	"vignat/internal/core"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
)

// traffic is one workload's input generator and output checker, bound
// to one engine instance (it learns the translations that engine
// chose).
type traffic interface {
	// next fills r with the next round's inputs and reports whether
	// the round is still part of set-up.
	next(r *round) bool
	// check steps the oracles over the round's outcomes and returns
	// the number of failed operations.
	check(r *round, out []outcome, bad []bool) int
}

// memWorkload describes an in-memory workload.
type memWorkload struct {
	name       string
	cache      bool
	setups     int // set-ups per run; setup_s is their median
	build      func(libvig.Clock) (*built, error)
	newTraffic func(seed int64) traffic
	// The traced replay's view: the NAT's Texp and external address,
	// and how many rounds after set-up it times.
	texp   time.Duration
	extIP  flow.Addr
	window int
}

// --- nat-established -------------------------------------------------

const (
	estCapacity = nat.DefaultCapacity // 65535, the paper's table
	estShards   = 3                   // 65535 = 3 × 21845: no capacity lost to rounding
	estSessions = 60000               // ≈92% occupancy
	estRound    = 512                 // frames per round
	estSetup    = 256                 // sessions installed per set-up round
	estZipfS    = 1.05
	estFrame    = 64
	// estTick is one round at 64-byte 10GbE line rate (67.2 ns a frame).
	estTick = estRound * 672 / 10
	estTexp = 60 * time.Second // the paper's Fig. 14 timeout: nothing expires
)

var estExtIP = core.IPv4(198, 18, 1, 1)

func buildEstablished(clock libvig.Clock) (*built, error) {
	cfg := core.DefaultConfig(estExtIP)
	cfg.Capacity = estCapacity
	cfg.Timeout = estTexp
	s, err := nat.NewSharded(cfg, clock, estShards)
	if err != nil {
		return nil, err
	}
	return &built{top: s, sharded: s}, nil
}

var established = memWorkload{
	name: "nat-established",
	// The flow cache stays off here: with it on, a cache hit can replay
	// another flow's rewrite (see README, "Known faults"), so outputs
	// fail the oracle on some seeds. The traced run still reports the
	// cache's figures from a cache-on twin.
	cache:      false,
	setups:     5,
	build:      buildEstablished,
	newTraffic: newEstTraffic,
	texp:       estTexp,
	extIP:      estExtIP,
	window:     300,
}

type estSession struct {
	intKey  flow.ID
	extPort uint16
}

// estTraffic installs estSessions UDP sessions, then sends 64-byte
// frames over them with Zipf-distributed popularity; one frame in
// eight (on average) is the server's reply.
type estTraffic struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	sess      []estSession
	byRank    []int32
	installed int
	seq       uint32
	now       libvig.Time
	nat       *natCheck
}

func newEstTraffic(seed int64) traffic {
	rng := rand.New(rand.NewSource(seed))
	t := &estTraffic{
		rng:  rng,
		zipf: rand.NewZipf(rng, estZipfS, 1, estSessions-1),
		sess: make([]estSession, estSessions),
		nat:  newNATCheck(estCapacity, estTexp.Nanoseconds(), estExtIP, core.DefaultConfig(estExtIP).PortBase),
		now:  1,
	}
	// Distinct internal hosts 10.0.0.0/8 in a seeded order; servers and
	// their ports drawn from a small popular set.
	ports := []uint16{53, 123, 443, 3478, 4500, 5060, 8080, 27015}
	for i, h := range rng.Perm(estSessions) {
		t.sess[i].intKey = flow.ID{
			SrcIP:   core.IPv4(10, byte(h>>16), byte(h>>8), byte(h)) + 1,
			SrcPort: uint16(1024 + rng.Intn(60000)),
			DstIP:   core.IPv4(93, 184, byte(rng.Intn(4)), byte(rng.Intn(256))),
			DstPort: ports[rng.Intn(len(ports))],
			Proto:   flow.UDP,
		}
	}
	t.byRank = make([]int32, estSessions)
	for r, s := range rng.Perm(estSessions) {
		t.byRank[r] = int32(s)
	}
	return t
}

func (t *estTraffic) next(r *round) bool {
	t.seq++
	t.now += estTick
	r.seq, r.now, r.pkts = t.seq, t.now, r.pkts[:0]
	if t.installed < estSessions {
		for i := 0; i < estSetup && t.installed < estSessions; i++ {
			s := int32(t.installed)
			r.pkts = append(r.pkts, pkt{id: t.sess[s].intKey, size: estFrame, in: true, sess: s})
			t.installed++
		}
		return true
	}
	for i := 0; i < estRound; i++ {
		s := t.byRank[t.zipf.Uint64()]
		p := pkt{id: t.sess[s].intKey, size: estFrame, in: true, sess: s}
		if t.rng.Intn(8) == 0 {
			k := t.sess[s].intKey
			p.id = flow.ID{SrcIP: k.DstIP, SrcPort: k.DstPort, DstIP: estExtIP, DstPort: t.sess[s].extPort, Proto: k.Proto}
			p.in = false
		}
		r.pkts = append(r.pkts, p)
	}
	return false
}

func (t *estTraffic) check(r *round, out []outcome, bad []bool) int {
	failed := 0
	for pass := 0; pass < 2; pass++ { // the engine processes internal frames first
		for i := range r.pkts {
			p := &r.pkts[i]
			if p.in != (pass == 0) {
				continue
			}
			s := &t.sess[p.sess]
			err := t.nat.step(endpointKey(s.intKey.SrcIP, s.intKey.SrcPort), p.id, p.in, r.now, out[i])
			if err == nil && p.in && s.extPort == 0 {
				s.extPort = out[i].id.SrcPort
			}
			if err == nil && bad[i] {
				err = fmt.Errorf("bad checksum or duplicate output for %v", p.id)
			}
			if err != nil {
				failed++
				report(fmt.Errorf("round %d pkt %d sess %d: %w", r.seq, i, p.sess, err))
			}
		}
	}
	return failed
}
