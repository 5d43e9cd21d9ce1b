package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nf"
)

// pkt is one input frame of a round, as the workload describes it.
type pkt struct {
	id   flow.ID
	size int
	in   bool // arrives on the internal port
	kind uint8
	sess int32
}

// round is one lock-step batch: the clock is set to now, every frame
// is delivered, the engine polls until its RX rings are empty, and the
// harness drains and checks what left.
type round struct {
	seq  uint32
	now  libvig.Time
	pkts []pkt
}

func (r *round) tag(i int) uint64 { return uint64(r.seq)<<32 | uint64(i) }

// built is one instance of a workload's network function and the
// handles the checks and the traced replay need.
type built struct {
	top     nf.NF
	sharded *nat.Sharded // NAT-only engines
	chain   *nf.Chain    // the gateway chain
	nat     *nat.NAT     // the gateway chain's NAT element
	elems   []nf.NF      // the gateway chain's elements, in internal→external order
}

// natStats sums the NAT's counters, wherever it sits.
func (b *built) natStats() nat.Stats {
	if b.sharded != nil {
		return b.sharded.Stats()
	}
	return b.nat.Stats()
}

// occupancy is the NAT's live session count.
func (b *built) occupancy() int {
	if b.sharded != nil {
		return b.sharded.Flows()
	}
	return b.nat.Table().Size()
}

// engine is the system under test on the in-memory transport: two
// single-queue ports over one mempool, one run-to-completion worker,
// driven lock-step by the harness.
type engine struct {
	clock      *libvig.VirtualClock
	intP, extP *dpdk.Port
	pool       *dpdk.Mempool
	pipe       *nf.Pipeline
	nf         *built

	// Harness scratch: crafted inputs, drained outputs and their
	// decoded fates, reused across rounds.
	frames  [][]byte
	outBufs [][]byte
	outs    []output
	out     []outcome
	bad     []bool
	drainB  []*dpdk.Mbuf
	last    nf.PipelineStats
	// pollUs, when non-nil, collects every PollWorker call's duration;
	// idle counts the calls that found nothing to do.
	pollUs *[]float64
	idle   int64
}

// epoch anchors the harness's timestamps: time.Since on a monotonic
// time reads only the monotonic clock.
var epoch = time.Now()

// ringDepth bounds a round: every frame of a round sits in an RX ring
// before the engine polls, and every output in a TX ring until drained.
const (
	ringDepth = dpdk.DefaultRxQueue
	poolSize  = 4 * ringDepth
)

// newEngine builds the engine around a freshly built NF.
func newEngine(build func(libvig.Clock) (*built, error), cache bool) (*engine, error) {
	e := &engine{clock: libvig.NewVirtualClock(1)}
	b, err := build(e.clock)
	if err != nil {
		return nil, err
	}
	e.nf = b
	if e.pool, err = dpdk.NewMempool(poolSize); err != nil {
		return nil, err
	}
	if e.intP, err = dpdk.NewPort(0, ringDepth, ringDepth, e.pool); err != nil {
		return nil, err
	}
	if e.extP, err = dpdk.NewPort(1, ringDepth, ringDepth, e.pool); err != nil {
		return nil, err
	}
	fp := nf.FastPathDisabled
	if cache {
		fp = nf.DefaultFastPathEntries
	}
	e.pipe, err = nf.NewPipeline(b.top, nf.Config{
		Internal: e.intP, External: e.extP, Clock: e.clock,
		FastPath: fp, Telemetry: nf.TelemetryDisabled,
	})
	if err != nil {
		return nil, err
	}
	e.drainB = make([]*dpdk.Mbuf, nf.DefaultBurst)
	return e, nil
}

// grow sizes the harness scratch for n frames.
func (e *engine) grow(n int) {
	for len(e.frames) < n {
		e.frames = append(e.frames, make([]byte, dpdk.DataRoomSize))
	}
	if cap(e.out) < n {
		e.out = make([]outcome, n)
		e.bad = make([]bool, n)
	}
	e.out, e.bad = e.out[:n], e.bad[:n]
	for i := range e.out {
		e.out[i], e.bad[i] = outcome{}, false
	}
}

// craftRound writes the round's frames into the harness scratch.
func (e *engine) craftRound(r *round) {
	e.grow(len(r.pkts))
	for i := range r.pkts {
		p := &r.pkts[i]
		e.frames[i] = craft(e.frames[i][:cap(e.frames[i])], p.id, p.size, r.tag(i))
	}
}

// deliver sets the clock and places every frame on its port's RX ring.
// It returns the number of engine polls the round needs: each poll
// takes one burst from each port.
func (e *engine) deliver(r *round) (int, error) {
	e.clock.Set(r.now)
	ni, ne := 0, 0
	for i := range r.pkts {
		port := e.extP
		if r.pkts[i].in {
			port, ni = e.intP, ni+1
		} else {
			ne++
		}
		if !port.DeliverRx(e.frames[i], r.now) {
			return 0, errors.New("RX ring refused a frame")
		}
	}
	return (max(ni, ne) + nf.DefaultBurst - 1) / nf.DefaultBurst, nil
}

// poll runs the engine k times: the timed region. It returns the time
// spent inside PollWorker.
func (e *engine) poll(k int) (time.Duration, error) {
	var total time.Duration
	for ; k > 0; k-- {
		t0 := time.Since(epoch)
		n, err := e.pipe.PollWorker(0)
		d := time.Since(epoch) - t0
		total += d
		if n == 0 {
			e.idle++
		}
		if e.pollUs != nil {
			*e.pollUs = append(*e.pollUs, float64(d)/1e3)
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// output is the harness's copy of one transmitted frame.
type output struct {
	frame []byte
	toExt bool
}

// drain collects the round's outputs and records each against the
// input its tag names.
func (e *engine) drain(r *round) {
	for _, o := range e.collect() {
		e.record(r, o.frame, o.toExt)
	}
}

// collect takes every transmitted frame off both TX rings, copies it
// into the harness's own buffer and returns the mbuf to its pool.
func (e *engine) collect() []output {
	e.outs = e.outs[:0]
	for _, side := range []struct {
		port  *dpdk.Port
		toExt bool
	}{{e.extP, true}, {e.intP, false}} {
		for {
			k := side.port.DrainTx(e.drainB)
			if k == 0 {
				break
			}
			for _, m := range e.drainB[:k] {
				i := len(e.outs)
				if i == len(e.outBufs) {
					e.outBufs = append(e.outBufs, make([]byte, dpdk.DataRoomSize))
				}
				e.outBufs[i] = append(e.outBufs[i][:0], m.Data...)
				e.outs = append(e.outs, output{frame: e.outBufs[i], toExt: side.toExt})
				_ = m.Pool().Free(m)
			}
		}
	}
	return e.outs
}

// record attributes one output frame to its input. A frame that names
// no input of this round, or an input that left twice, or a frame
// whose checksums do not re-sum, marks the input failed.
func (e *engine) record(r *round, frame []byte, toExt bool) {
	d := decode(frame)
	idx := int(uint32(d.tag))
	if !d.ok || uint32(d.tag>>32) != r.seq || idx >= len(r.pkts) {
		if idx < len(e.bad) {
			e.bad[idx] = true
		}
		return
	}
	if e.out[idx].fwd || !d.csumOK {
		e.bad[idx] = true
	}
	e.out[idx] = outcome{fwd: true, toExt: toExt, id: d.id}
}

// account checks the round's conservation laws: the engine took in
// every frame, each left or was dropped, nothing is still buffered and
// every mbuf is back in the pool.
func (e *engine) account(r *round) error {
	s := e.pipe.Stats()
	d := nf.PipelineStats{
		RxPackets: s.RxPackets - e.last.RxPackets,
		TxPackets: s.TxPackets - e.last.TxPackets,
		TxFreed:   s.TxFreed - e.last.TxFreed,
		Dropped:   s.Dropped - e.last.Dropped,
	}
	e.last = s
	fwd := uint64(0)
	for i := range r.pkts {
		if e.out[i].fwd {
			fwd++
		}
	}
	switch {
	case d.RxPackets != uint64(len(r.pkts)):
		return fmt.Errorf("round %d: engine took in %d of %d frames", r.seq, d.RxPackets, len(r.pkts))
	case d.TxPackets != fwd || d.TxFreed != 0:
		return fmt.Errorf("round %d: engine sent %d (freed %d on TX), harness saw %d", r.seq, d.TxPackets, d.TxFreed, fwd)
	case d.RxPackets != d.TxPackets+d.Dropped:
		return fmt.Errorf("round %d: in %d != forwarded %d + dropped %d", r.seq, d.RxPackets, d.TxPackets, d.Dropped)
	case e.pool.InUse() != 0 || e.intP.RxQueueLen()+e.extP.RxQueueLen() != 0:
		return fmt.Errorf("round %d: %d mbufs still in use", r.seq, e.pool.InUse())
	}
	return nil
}

// queueDrops sums both ports' RX and TX drop counters.
func (e *engine) queueDrops() uint64 {
	a, b := e.intP.Stats(), e.extP.Stats()
	return a.RxDropped + a.TxDropped + b.RxDropped + b.TxDropped
}

// roundTimes is the harness's split of one round.
type roundTimes struct {
	deliver, poll, drain, check time.Duration
}

// collector keeps garbage collection out of the timed region. The
// engine allocates nothing per packet (alloc.per_pkt), but the harness
// does (oracle state, mostly), and a collection running concurrently
// with PollWorker would slow the engine for the harness's sake. So
// automatic collection is off, and the harness collects between rounds
// once the heap has grown by half since the last collection; a memory
// limit stays as a backstop in case anything outgrows that.
var collector gcPacer

type gcPacer struct {
	on     bool
	sample []metrics.Sample
	next   uint64
	rounds int
}

func (g *gcPacer) start() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(3 << 30)
	g.on = true
	g.sample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	g.collect()
}

func (g *gcPacer) heap() uint64 {
	metrics.Read(g.sample)
	return g.sample[0].Value.Uint64()
}

func (g *gcPacer) collect() {
	runtime.GC()
	live := g.heap()
	g.next = live + max(live/2, 64<<20)
}

// between runs a collection when one is due.
func (g *gcPacer) between() {
	g.rounds++
	if g.on && g.rounds%16 == 0 && g.heap() >= g.next {
		g.collect()
	}
}

// step runs one whole round: craft, deliver, poll (timed), drain,
// check. It returns the failed-operation count and the split.
func (e *engine) step(r *round, t traffic) (int, roundTimes, error) {
	var rt roundTimes
	e.craftRound(r)
	t0 := time.Now()
	polls, err := e.deliver(r)
	if err != nil {
		return 0, rt, err
	}
	t1 := time.Now()
	busy, err := e.poll(polls)
	if err != nil {
		return 0, rt, err
	}
	t2 := time.Now()
	e.drain(r)
	t3 := time.Now()
	if err := e.account(r); err != nil {
		return 0, rt, err
	}
	failed := t.check(r, e.out, e.bad)
	t4 := time.Now()
	collector.between()
	rt = roundTimes{deliver: t1.Sub(t0), poll: busy, drain: t3.Sub(t2), check: t4.Sub(t3)}
	return failed, rt, nil
}
