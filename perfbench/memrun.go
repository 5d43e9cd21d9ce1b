package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// session is one set-up engine with its traffic, ready to measure.
type session struct {
	e       *engine
	t       traffic
	pending round // the next round to run
	fresh   bool  // pending was generated and not yet run
	failed  int64
	ops     int64
}

// setUp builds an engine and drives its workload's set-up rounds
// through the packet path. It returns the program's share of the
// set-up time: building the engine plus its time inside PollWorker.
// Generating, delivering, draining and checking the set-up traffic are
// the harness's, and never counted in the system's numbers.
func setUp(w *memWorkload, seed int64, log *roundLog) (*session, time.Duration, error) {
	start := time.Now()
	e, err := newEngine(w.build, w.cache)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	s := &session{e: e, t: w.newTraffic(seed)}
	for {
		r := &s.pending
		if !s.t.next(r) {
			s.fresh = true
			break
		}
		log.add(r)
		failed, rt, err := e.step(r, s.t)
		if err != nil {
			return nil, 0, err
		}
		s.failed += int64(failed)
		s.ops += int64(len(r.pkts))
		took += rt.poll
	}
	if log != nil {
		log.warm = len(log.rounds)
	}
	return s, took, nil
}

// heapLive is the live heap after a forced collection.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sliceLen is the wall time over which one tail percentile is taken;
// a run reports the median over its slices, so a burst of interference
// on the host moves one slice, not the run's figure.
const sliceLen = 500 * time.Millisecond

// measured collects the timed rounds' figures.
type measured struct {
	pktNs   []float64 // engine ns per packet, per round
	pollUs  []float64 // every PollWorker call's duration
	slices  []int     // pollUs index where each slice ends
	pkts    int64
	busy    time.Duration
	harness roundTimes
	failed  int64
	ops     int64
}

// mpps is the median round's packet rate inside PollWorker.
func (m *measured) mpps() float64 { return 1e3 / median(append([]float64(nil), m.pktNs...)) }

// sliceQuantile is the median over slices of each slice's q-quantile.
func sliceQuantile(xs []float64, ends []int, q float64) float64 {
	var per []float64
	lo := 0
	for _, hi := range ends {
		if hi > lo {
			per = append(per, quantile(append([]float64(nil), xs[lo:hi]...), q))
		}
		lo = hi
	}
	return median(per)
}

// measure runs whole rounds until d has elapsed.
func (s *session) measure(d time.Duration, log *roundLog) (*measured, error) {
	m := &measured{}
	s.e.pollUs = &m.pollUs
	defer func() { s.e.pollUs = nil }()
	start := time.Now()
	next := sliceLen
	for time.Since(start) < d {
		r := &s.pending
		if !s.fresh {
			s.t.next(r)
		}
		s.fresh = false
		log.add(r)
		failed, rt, err := s.e.step(r, s.t)
		if err != nil {
			return nil, err
		}
		n := len(r.pkts)
		m.failed += int64(failed)
		m.ops += int64(n)
		m.pkts += int64(n)
		m.busy += rt.poll
		m.pktNs = append(m.pktNs, float64(rt.poll.Nanoseconds())/float64(n))
		m.harness.deliver += rt.deliver
		m.harness.drain += rt.drain
		m.harness.check += rt.check
		if time.Since(start) >= next {
			m.slices = append(m.slices, len(m.pollUs))
			next += sliceLen
		}
	}
	m.slices = append(m.slices, len(m.pollUs))
	return m, nil
}

// runMem runs an in-memory workload: set-ups, then the timed rounds
// (or, with --trace 1, the traced run).
func runMem(w *memWorkload, o options) (*result, error) {
	rig("mem")
	collector.start()
	res := &result{Correct: true}
	var setups []float64
	var memMB float64
	var s *session
	var log *roundLog
	for k := 0; k < w.setups; k++ {
		s = nil
		if o.trace && k == w.setups-1 {
			// The traced run replays everything from the first set-up
			// round of the engine it measures.
			log = &roundLog{limit: 1 << 30}
		}
		h0 := heapLive()
		var d time.Duration
		var err error
		s, d, err = setUp(w, o.seed, log)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		res.Attempted += s.ops
		res.Failed += s.failed
		if k == 0 {
			// The engine's own footprint: drop the harness (oracles,
			// generators, scratch) and weigh what the engine holds.
			eng := s.e
			s, eng.frames, eng.outBufs = nil, nil, nil
			memMB = float64(heapLive()-h0) / (1 << 20)
			runtime.KeepAlive(eng)
		}
	}
	if o.trace {
		return traceMem(w, o, s, log, res)
	}
	m, err := s.measure(time.Duration(o.seconds*float64(time.Second)), nil)
	if err != nil {
		return nil, err
	}
	res.Attempted += m.ops
	res.Failed += m.failed
	if d := s.e.queueDrops(); d != 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d queue drops\n", d)
	}
	res.set("setup_s", median(setups), "s")
	res.set("pkt_mpps", m.mpps(), "Mpps")
	res.set("mem_mb", memMB, "MB")
	res.set("rtt_p50_us", quantile(append([]float64(nil), m.pollUs...), 0.5), "us")
	fmt.Fprintf(os.Stderr, "%s: %d rounds, %d packets, engine %.2fs, harness deliver %.2fs drain %.2fs check %.2fs, occupancy %d, set-ups %.3f s\n",
		w.name, len(m.pktNs), m.pkts, m.busy.Seconds(), m.harness.deliver.Seconds(),
		m.harness.drain.Seconds(), m.harness.check.Seconds(), s.e.nf.occupancy(), setups)
	return res, nil
}
