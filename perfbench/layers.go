package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/fastpath"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
)

// The traced run's per-layer split. Nothing inside the program is
// instrumented: the workload's own inputs (recorded in a roundLog from
// the first set-up round on) are replayed through each layer's public
// functions on identically built twins, and the benchmark times every
// call from its own code.

// roundLog records rounds for the replay; a nil log records nothing.
type roundLog struct {
	rounds []round
	limit  int
	warm   int // rounds logged before the timed window
}

func (l *roundLog) add(r *round) {
	if l == nil || len(l.rounds) >= l.limit {
		return
	}
	l.rounds = append(l.rounds, round{seq: r.seq, now: r.now, pkts: append([]pkt(nil), r.pkts...)})
}

// acc accumulates one call site's time and work units.
type acc struct{ ns, n int64 }

func (a *acc) add(d time.Duration, n int) { a.ns += int64(d); a.n += int64(n) }

// per is the mean time per unit (0 with no units).
func (a acc) per() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n)
}

// since is a monotonic-only interval from t0 (a time.Since(epoch)).
func since(t0 time.Duration) time.Duration { return time.Since(epoch) - t0 }
func now() time.Duration                   { return time.Since(epoch) }

// replayCfg says what a workload's replay needs to know.
type replayCfg struct {
	build func(libvig.Clock) (*built, error)
	texp  time.Duration
	extIP flow.Addr
}

// twinNF is an NF-only twin (no engine) with its own clock.
type twinNF struct {
	clock *libvig.VirtualClock
	b     *built
	verd  []nf.Verdict
	pkts  [][]nf.Pkt // per shard, per poll
}

func newTwinNF(build func(libvig.Clock) (*built, error)) (*twinNF, error) {
	t := &twinNF{clock: libvig.NewVirtualClock(1), verd: make([]nf.Verdict, 2*nf.DefaultBurst)}
	var err error
	t.b, err = build(t.clock)
	return t, err
}

func (t *twinNF) shards() int {
	if t.b.sharded != nil {
		return t.b.sharded.Shards()
	}
	return 1
}

// polls splits a round the way the engine does: poll k takes burst k
// of each port (internal first), steered to shards; fn sees each
// non-empty shard batch in shard order.
func (t *twinNF) polls(r *round, frames [][]byte, fn func(shard int, pkts []nf.Pkt)) {
	if t.pkts == nil {
		t.pkts = make([][]nf.Pkt, t.shards())
	}
	var ins, exts []int
	for i := range r.pkts {
		if r.pkts[i].in {
			ins = append(ins, i)
		} else {
			exts = append(exts, i)
		}
	}
	for k := 0; k*nf.DefaultBurst < max(len(ins), len(exts)); k++ {
		for s := range t.pkts {
			t.pkts[s] = t.pkts[s][:0]
		}
		for _, side := range [][]int{ins, exts} {
			lo := min(k*nf.DefaultBurst, len(side))
			hi := min(lo+nf.DefaultBurst, len(side))
			for _, i := range side[lo:hi] {
				s := 0
				if t.b.sharded != nil && len(t.pkts) > 1 {
					s = t.b.sharded.ShardOf(frames[i], r.pkts[i].in)
				}
				t.pkts[s] = append(t.pkts[s], nf.Pkt{Frame: frames[i], FromInternal: r.pkts[i].in})
			}
		}
		for s, p := range t.pkts {
			if len(p) > 0 {
				fn(s, p)
			}
		}
	}
}

// natTable is shard s's NAT flow table.
func (t *twinNF) natTable(s int) *nat.FlowTable {
	if t.b.sharded != nil {
		return t.b.sharded.ShardNAT(s).Table()
	}
	return t.b.nat.Table()
}

// layerSplit holds the replay's per-layer accumulators.
type layerSplit struct {
	onPoll, offPoll             acc
	onStats, onBase             nf.PipelineStats
	idleUs                      []float64
	onAllocs, offAllocs         uint64
	divergent                   int64
	nfBatch, parts, expire      acc
	expiredFlows                int64
	elem                        map[string]*acc
	lookup, add, tblExpire      acc
	tblExpired                  int64
	parse, extract, cht, bucket acc
	rx, tx, udpRx, udpTx        acc
	bursts                      int64
	fwd, pkts                   int64
}

func (L *layerSplit) elemAcc(name string) *acc {
	if L.elem[name] == nil {
		L.elem[name] = &acc{}
	}
	return L.elem[name]
}

// replay runs the logged rounds through every twin and times the
// window rounds.
func replay(c replayCfg, log *roundLog) (*layerSplit, error) {
	L := &layerSplit{elem: map[string]*acc{}}
	on, err := newEngine(c.build, true)
	if err != nil {
		return nil, err
	}
	off, err := newEngine(c.build, false)
	if err != nil {
		return nil, err
	}
	a, err := newTwinNF(c.build)
	if err != nil {
		return nil, err
	}
	tbl, err := nat.NewFlowTable(nat.DefaultCapacity, c.extIP, 1)
	if err != nil {
		return nil, err
	}
	cht, err := libvig.NewCHT(len(gwResolvers), lb.DefaultCHTSize)
	if err != nil {
		return nil, err
	}
	for i, ip := range gwResolvers {
		if err := cht.AddBackend(i, uint64(ip)); err != nil {
			return nil, err
		}
	}
	bucket, err := libvig.NewTokenBucket(nat.DefaultCapacity, gwRate, gwBurst)
	if err != nil {
		return nil, err
	}
	subs := map[flow.Addr]int{}
	io, err := newIOTwins()
	if err != nil {
		return nil, err
	}
	defer io.close()

	// Off the NAT-only engines' path, the gateway's other elements are
	// timed on the same batches, for reference.
	var off3 []nf.NF
	if a.b.chain == nil {
		g, err := buildGateway(libvig.NewVirtualClock(1))
		if err != nil {
			return nil, err
		}
		off3 = g.elems[:3]
	}
	var offFrames [][]byte
	var offPkts []nf.Pkt
	offPath := func(_ int, pkts []nf.Pkt) {
		for _, e := range off3 {
			offPkts = offPkts[:0]
			for j, p := range pkts {
				if j == len(offFrames) {
					offFrames = append(offFrames, make([]byte, dpdk.DataRoomSize))
				}
				offFrames[j] = append(offFrames[j][:0], p.Frame...)
				offPkts = append(offPkts, nf.Pkt{Frame: offFrames[j], FromInternal: p.FromInternal})
			}
			t0 := now()
			e.ProcessBatch(offPkts, a.verd[:len(offPkts)])
			L.elemAcc(e.Name()).add(since(t0), len(offPkts))
		}
	}
	var ids []flow.ID
	allocs := newAllocCounter()
	// framesA go through the NF twin (which rewrites them), framesC
	// stay as sent for the stateless layers.
	framesA, framesC := [][]byte{}, [][]byte{}
	onOut, offOut := map[uint64][]byte{}, map[uint64][]byte{}
	var scratch netstack.Packet
	for ri := range log.rounds {
		r := &log.rounds[ri]
		timed := ri >= log.warm
		if ri == log.warm {
			L.onBase = on.pipe.Stats()
		}
		n := len(r.pkts)
		for len(framesA) < n {
			framesA = append(framesA, make([]byte, dpdk.DataRoomSize))
			framesC = append(framesC, make([]byte, dpdk.DataRoomSize))
		}
		for i := range r.pkts {
			p := &r.pkts[i]
			framesA[i] = craft(framesA[i][:cap(framesA[i])], p.id, p.size, r.tag(i))
			framesC[i] = append(framesC[i][:0], framesA[i]...)
		}

		// The engines, cache on and off: same inputs, outputs compared.
		for _, tw := range []struct {
			e      *engine
			poll   *acc
			allocs *uint64
			out    map[uint64][]byte
		}{{on, &L.onPoll, &L.onAllocs, onOut}, {off, &L.offPoll, &L.offAllocs, offOut}} {
			tw.e.craftRound(r)
			polls, err := tw.e.deliver(r)
			if err != nil {
				return nil, err
			}
			a0 := allocs.read()
			busy, err := tw.e.poll(polls)
			if err != nil {
				return nil, err
			}
			if timed {
				tw.poll.add(busy, n)
				*tw.allocs += allocs.read() - a0
			}
			clear(tw.out)
			for _, port := range []*dpdk.Port{tw.e.extP, tw.e.intP} {
				for {
					k := port.DrainTx(tw.e.drainB)
					if k == 0 {
						break
					}
					for _, m := range tw.e.drainB[:k] {
						tw.out[decode(m.Data).tag] = append([]byte(nil), m.Data...)
						_ = m.Pool().Free(m)
					}
				}
			}
		}
		if timed {
			for tag, f := range offOut {
				if g, ok := onOut[tag]; !ok || !bytes.Equal(f, g) {
					L.divergent++
				}
			}
			for tag := range onOut {
				if _, ok := offOut[tag]; !ok {
					L.divergent++
				}
			}
			L.fwd += int64(len(offOut))
			L.pkts += int64(n)
			// One idle poll after the round: what a busy-polling worker
			// spends when its rings are empty (the expiry sweep).
			t0 := now()
			if _, err := off.pipe.PollWorker(0); err != nil {
				return nil, err
			}
			L.idleUs = append(L.idleUs, float64(since(t0))/1e3)

			// Stateless per-frame layers over the round's inputs.
			t0 = now()
			for _, f := range framesC[:n] {
				_ = scratch.Parse(f)
			}
			L.parse.add(since(t0), n)
			t0 = now()
			for _, f := range framesC[:n] {
				_ = fastpath.Extract(f)
			}
			L.extract.add(since(t0), n)
			t0 = now()
			for i := range r.pkts {
				_, _ = cht.Lookup(r.pkts[i].id.Hash())
			}
			L.cht.add(since(t0), n)
			if err := io.round(L, framesC[:n], r); err != nil {
				return nil, err
			}
		}

		// The NF twin, on the engine's batches. Every window round starts
		// with an explicit expiry sweep (timed: the expiry the packets
		// would have run), then the rounds rotate between timing the
		// engine-facing NF's ProcessBatch, timing its parts (each chain
		// element's ProcessBatch, or the NAT core per packet), and timing
		// the NAT table's lookups just before an untimed ProcessBatch
		// (apart, so the lookups never warm the lines a timed batch then
		// reads). All three do the same state changes, so one twin at one
		// occupancy serves them and the first two's difference is the
		// composition's own cost.
		a.clock.Set(r.now)
		mode := (ri - log.warm) % 3
		if timed {
			t0 := now()
			freed := 0
			if a.b.sharded != nil {
				for s := 0; s < a.shards(); s++ {
					freed += a.b.sharded.Shard(s).Expire(r.now)
				}
			} else {
				for _, e := range a.b.elems {
					freed += e.Expire(r.now)
				}
			}
			L.expire.add(since(t0), n)
			L.expiredFlows += int64(freed)
		}
		if timed && mode == 1 {
			a.polls(r, framesA, func(s int, pkts []nf.Pkt) {
				if a.b.sharded == nil {
					a.chainParts(pkts, L)
					return
				}
				core := a.b.sharded.ShardNAT(s)
				t0 := now()
				for _, p := range pkts {
					core.ProcessAt(p.Frame, p.FromInternal, r.now)
				}
				L.parts.add(since(t0), len(pkts))
			})
		} else {
			a.polls(r, framesA, func(s int, pkts []nf.Pkt) {
				if timed && mode == 2 {
					ids = ids[:0]
					for _, p := range pkts {
						ids = append(ids, decode(p.Frame).id)
					}
					t := a.natTable(s)
					t0 := now()
					for j, p := range pkts {
						if p.FromInternal {
							_, _ = t.LookupInt(ids[j])
						} else {
							_, _ = t.LookupExt(ids[j])
						}
					}
					L.lookup.add(since(t0), len(pkts))
					offPath(s, pkts)
				}
				t0 := now()
				var nfv nf.NF = a.b.top
				if a.b.sharded != nil {
					nfv = a.b.sharded.Shard(s)
				}
				nfv.ProcessBatch(pkts, a.verd[:len(pkts)])
				if timed && mode == 0 {
					L.nfBatch.add(since(t0), len(pkts))
				}
			})
		}

		// A lone libVig flow table kept at the NAT's occupancy.
		t0 := now()
		k := tbl.Expire(r.now - c.texp.Nanoseconds() + 1)
		if timed {
			L.tblExpire.add(since(t0), 1)
			L.tblExpired += int64(k)
		}
		for i := range r.pkts {
			p := &r.pkts[i]
			intKey := p.id
			if !p.in {
				// The session the reply belongs to, named by where twin A
				// delivered it.
				d := decode(framesA[i])
				if !d.ok || d.id.DstIP == p.id.DstIP {
					continue
				}
				intKey = flow.ID{SrcIP: d.id.DstIP, SrcPort: d.id.DstPort, DstIP: p.id.SrcIP, DstPort: p.id.SrcPort, Proto: p.id.Proto}
			}
			if idx, ok := tbl.LookupInt(intKey); ok {
				_ = tbl.Rejuvenate(idx, r.now)
				continue
			}
			if !p.in {
				continue
			}
			t0 := now()
			_, _ = tbl.Add(intKey, r.now)
			if timed {
				L.add.add(since(t0), 1)
			}
		}

		collector.between()

		// The policer's token bucket, charged for every inbound frame
		// by the host twin A delivered it to.
		if timed {
			for i := range r.pkts {
				if r.pkts[i].in {
					continue
				}
				d := decode(framesA[i])
				idx, ok := subs[d.id.DstIP]
				if !ok {
					idx = len(subs) % nat.DefaultCapacity
					subs[d.id.DstIP] = idx
					_ = bucket.Fill(idx, r.now)
				}
				t0 := now()
				_ = bucket.Charge(idx, r.pkts[i].size, r.now)
				L.bucket.add(since(t0), 1)
			}
		}
	}
	L.onStats = on.pipe.Stats()
	if L.add.n == 0 {
		// No session opened in the window (nat-established): time
		// additions of fresh sessions at the same occupancy, removing
		// each again.
		for i := 0; i < 4096; i++ {
			id := flow.ID{SrcIP: flow.MakeAddr(172, 16, byte(i>>8), byte(i)), SrcPort: 7, DstIP: flow.MakeAddr(192, 0, 2, 1), DstPort: 7, Proto: flow.UDP}
			t0 := now()
			idx, ok := tbl.Add(id, 1)
			L.add.add(since(t0), 1)
			if ok {
				_ = tbl.Remove(idx)
			}
		}
	}
	return L, nil
}

// chainParts runs one batch through the chain's elements the way
// nf.Chain.ProcessBatch does (internal group through the elements in
// order, external group in reverse, each element on the survivors),
// timing each element's ProcessBatch.
func (t *twinNF) chainParts(pkts []nf.Pkt, L *layerSplit) {
	elems := t.b.elems
	for _, fromInternal := range []bool{true, false} {
		var live []nf.Pkt
		for _, p := range pkts {
			if p.FromInternal == fromInternal {
				live = append(live, p)
			}
		}
		for step := 0; step < len(elems) && len(live) > 0; step++ {
			ei := step
			if !fromInternal {
				ei = len(elems) - 1 - step
			}
			t0 := now()
			elems[ei].ProcessBatch(live, t.verd[:len(live)])
			d := since(t0)
			L.elemAcc(elems[ei].Name()).add(d, len(live))
			L.parts.add(d, 0)
			kept := live[:0]
			for j, p := range live {
				if t.verd[j] == nf.Forward {
					kept = append(kept, p)
				}
			}
			live = kept
		}
	}
	L.parts.n += int64(len(pkts))
}

// ioTwins are lone port pairs on both transports for timing bursts.
type ioTwins struct {
	pool       *dpdk.Mempool
	memA, memB *dpdk.Port
	udpA, udpB *dpdk.Port
	bufs       []*dpdk.Mbuf
	udpBudget  int
}

func newIOTwins() (*ioTwins, error) {
	t := &ioTwins{bufs: make([]*dpdk.Mbuf, nf.DefaultBurst), udpBudget: 8192}
	var err error
	if t.pool, err = dpdk.NewMempool(poolSize); err != nil {
		return nil, err
	}
	if t.memA, err = dpdk.NewPort(0, ringDepth, ringDepth, t.pool); err != nil {
		return nil, err
	}
	if t.memB, err = dpdk.NewPort(1, ringDepth, ringDepth, t.pool); err != nil {
		return nil, err
	}
	ta, err := dpdk.NewUDPTransport(dpdk.SocketConfig{Local: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	tb, err := dpdk.NewUDPTransport(dpdk.SocketConfig{Local: "127.0.0.1:0", Peer: ta.LocalAddr(0)})
	if err != nil {
		ta.Close()
		return nil, err
	}
	if err := ta.SetPeer(tb.LocalAddr(0)); err != nil {
		ta.Close()
		tb.Close()
		return nil, err
	}
	if t.udpA, err = dpdk.NewPortOn(2, ta, []*dpdk.Mempool{t.pool}); err != nil {
		return nil, err
	}
	if t.udpB, err = dpdk.NewPortOn(3, tb, []*dpdk.Mempool{t.pool}); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *ioTwins) close() {
	if t.udpA != nil {
		t.udpA.Close()
	}
	if t.udpB != nil {
		t.udpB.Close()
	}
}

// round times RX and TX bursts of the round's frames on the mem
// transport and, while the budget lasts, on the UDP transport.
func (t *ioTwins) round(L *layerSplit, frames [][]byte, r *round) error {
	for lo := 0; lo < len(frames); lo += nf.DefaultBurst {
		chunk := frames[lo:min(lo+nf.DefaultBurst, len(frames))]
		for _, f := range chunk {
			if !t.memA.DeliverRx(f, r.now) {
				return fmt.Errorf("replay RX ring refused a frame")
			}
		}
		t0 := now()
		got := t.memA.RxBurstQueue(0, t.bufs)
		L.rx.add(since(t0), got)
		if got > 0 {
			L.bursts++
		}
		t0 = now()
		sent := t.memB.TxBurstQueue(0, t.bufs[:got])
		L.tx.add(since(t0), sent)
		for _, m := range t.bufs[sent:got] {
			_ = m.Pool().Free(m)
		}
		for {
			k := t.memB.DrainTx(t.bufs)
			if k == 0 {
				break
			}
			for _, m := range t.bufs[:k] {
				_ = m.Pool().Free(m)
			}
		}
		if t.udpBudget <= 0 {
			continue
		}
		out := t.bufs[:0]
		for _, f := range chunk {
			m := t.pool.Alloc()
			if m == nil {
				return fmt.Errorf("replay pool exhausted")
			}
			_ = m.SetFrame(f)
			out = append(out, m)
		}
		t0 = now()
		sent = t.udpA.TxBurstQueue(0, out)
		L.udpTx.add(since(t0), sent)
		for _, m := range out[sent:] {
			_ = m.Pool().Free(m)
		}
		t.udpBudget -= sent
		for want, deadline := sent, time.Now().Add(time.Second); want > 0 && time.Now().Before(deadline); {
			t0 = now()
			k := t.udpB.RxBurstQueue(0, t.bufs)
			if k > 0 {
				L.udpRx.add(since(t0), k)
			}
			for _, m := range t.bufs[:k] {
				_ = m.Pool().Free(m)
			}
			want -= k
			if k == 0 {
				t.udpB.WaitRxQueue(0, time.Millisecond)
			}
		}
	}
	return nil
}

// allocCounter reads the runtime's cumulative heap allocation count.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	if a.s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return a.s[0].Value.Uint64()
}

// profiled runs fn under the CPU profiler and returns the profile.
func profiled(fn func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}
