package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vignat/internal/core"
	"vignat/internal/dpdk"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nf"
)

// extras are the traced run's figures that do not come from the
// replay: the engine's own timed phases, its counters, the profile.
type extras struct {
	pollNs, overheadPct, p95  float64
	shares                    map[string]float64
	created, expired, occ     float64
	queueDrops, idlePolls     float64
	deliverNs, drainNs, check float64
	cacheOn                   bool
}

// setLayers writes every per-layer metric.
func setLayers(res *result, L *layerSplit, x extras) {
	ns := func(name string, v float64) { res.set(name, v, "ns") }
	count := func(name string, v float64) { res.set(name, v, "count") }

	ns("dpdk.rx_ns", L.rx.per())
	ns("dpdk.tx_ns", L.tx.per())
	ns("dpdk.udp_rx_ns", L.udpRx.per())
	ns("dpdk.udp_tx_ns", L.udpTx.per())
	fill := 0.0
	if L.bursts > 0 {
		fill = float64(L.rx.n) / float64(L.bursts)
	}
	count("dpdk.rx_burst_fill", fill)
	count("dpdk.queue_drops", x.queueDrops)

	ns("nf.poll_ns", x.pollNs)
	fwdShare := 0.0
	if L.pkts > 0 {
		fwdShare = float64(L.fwd) / float64(L.pkts)
	}
	// The cache-off engine's time per packet less every figure isolated
	// on the same frames: RX, TX of what was forwarded, the NF's own
	// ProcessBatch and its expiry. What is left is the engine's steer,
	// batch and emit.
	ns("nf.residual_ns", L.offPoll.per()-L.rx.per()-fwdShare*L.tx.per()-L.nfBatch.per()-L.expire.per())
	count("nf.idle_polls", x.idlePolls)
	res.set("nf.idle_poll_us", median(append([]float64(nil), L.idleUs...)), "us")
	over := 0.0
	if L.nfBatch.n > 0 {
		over = float64(L.nfBatch.ns-L.parts.ns) / float64(L.nfBatch.n)
	}
	ns("nf.chain_overhead_ns", over)
	ns("nf.expire_ns_per_flow", perFlow(L.expire, L.expiredFlows))

	hits, misses := L.onStats.FastPathHits-L.onBase.FastPathHits, L.onStats.FastPathMisses-L.onBase.FastPathMisses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	res.set("fastpath.hit_ratio", ratio, "ratio")
	count("fastpath.hits", float64(hits))
	count("fastpath.misses", float64(misses))
	count("fastpath.bypassed", float64(L.onStats.FastPathBypassed-L.onBase.FastPathBypassed))
	count("fastpath.evictions", float64(L.onStats.FastPathEvictions-L.onBase.FastPathEvictions))
	count("fastpath.divergent", float64(L.divergent))
	ns("fastpath.extract_ns", L.extract.per())
	ns("fastpath.on_poll_ns", L.onPoll.per())
	ns("fastpath.off_poll_ns", L.offPoll.per())

	ns("netstack.parse_ns", L.parse.per())

	ns("libvig.lookup_ns", L.lookup.per())
	ns("libvig.add_ns", L.add.per())
	ns("libvig.expire_ns", perFlow(L.tblExpire, L.tblExpired))
	ns("libvig.cht_ns", L.cht.per())
	ns("libvig.bucket_ns", L.bucket.per())

	natBatch := L.nfBatch.per()
	if a := L.elem["vignat"]; a != nil {
		natBatch = a.per()
	}
	ns("nat.batch_ns", natBatch)
	for _, e := range []struct{ metric, name string }{
		{"firewall.batch_ns", "firewall"}, {"policer.batch_ns", "vigpol"}, {"lb.batch_ns", "viglb"},
	} {
		v := 0.0
		if a := L.elem[e.name]; a != nil {
			v = a.per()
		}
		ns(e.metric, v)
	}
	count("nat.sessions_created", x.created)
	count("nat.sessions_expired", x.expired)
	count("nat.occupancy", x.occ)

	allocs := L.offAllocs
	if x.cacheOn {
		allocs = L.onAllocs
	}
	perPkt := 0.0
	if L.pkts > 0 {
		perPkt = float64(allocs) / float64(L.pkts)
	}
	count("alloc.per_pkt", perPkt)

	ns("harness.deliver_ns", x.deliverNs)
	ns("harness.drain_ns", x.drainNs)
	ns("harness.check_ns", x.check)
	for _, l := range layerNames() {
		res.set(l+".self_pct", x.shares[l], "%")
	}
	res.set("trace.overhead_pct", x.overheadPct, "%")
	res.set("rtt.p95_us", x.p95, "us")
}

// perFlow is expiry's cost per freed entry; with nothing freed (a
// workload without churn) it is the cost of the empty sweeps, per
// unit a counts.
func perFlow(a acc, freed int64) float64 {
	if freed == 0 {
		return a.per()
	}
	return float64(a.ns) / float64(freed)
}

// traceMem is an in-memory workload's traced run: a third of the time
// untraced, a third under the CPU profiler, then the replay of the
// set-up and the first window rounds through every layer.
func traceMem(w *memWorkload, o options, s *session, log *roundLog, res *result) (*result, error) {
	phase := time.Duration(o.seconds / 3 * float64(time.Second))
	log.limit = log.warm + w.window
	nat0 := s.e.nf.natStats()
	ma, err := s.measure(phase, log)
	if err != nil {
		return nil, err
	}
	var mb *measured
	prof, err := profiled(func() error {
		var err error
		mb, err = s.measure(phase, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	shares, _, err := selfShares(prof, nil)
	if err != nil {
		return nil, err
	}
	nat1 := s.e.nf.natStats()
	res.Attempted += ma.ops + mb.ops
	res.Failed += ma.failed + mb.failed
	pk := float64(ma.pkts)
	x := extras{
		pollNs:      1e3 / ma.mpps(),
		overheadPct: (ma.mpps()/mb.mpps() - 1) * 100,
		p95:         sliceQuantile(ma.pollUs, ma.slices, 0.95),
		shares:      shares,
		created:     float64(nat1.FlowsCreated - nat0.FlowsCreated),
		expired:     float64(nat1.FlowsExpired - nat0.FlowsExpired),
		occ:         float64(s.e.nf.occupancy()),
		queueDrops:  float64(s.e.queueDrops()),
		idlePolls:   float64(s.e.idle),
		deliverNs:   float64(ma.harness.deliver) / pk,
		drainNs:     float64(ma.harness.drain) / pk,
		check:       float64(ma.harness.check) / pk,
		cacheOn:     w.cache,
	}
	if x.queueDrops != 0 {
		res.Correct = false
	}
	s = nil
	runtime.GC()
	L, err := replay(replayCfg{build: w.build, texp: w.texp, extIP: w.extIP}, log)
	if err != nil {
		return nil, err
	}
	setLayers(res, L, x)
	return res, nil
}

// timedTransport wraps the UDP transport to time its bursts from the
// benchmark's side of the interface.
type timedTransport struct {
	*dpdk.UDPTransport
	rx, tx acc
	bursts int64
}

func (t *timedTransport) RxBurst(q int, bufs []*dpdk.Mbuf) int {
	t0 := now()
	n := t.UDPTransport.RxBurst(q, bufs)
	if n > 0 {
		t.rx.add(since(t0), n)
		t.bursts++
	}
	return n
}

func (t *timedTransport) TxBurst(q int, bufs []*dpdk.Mbuf) int {
	t0 := now()
	n := t.UDPTransport.TxBurst(q, bufs)
	t.tx.add(since(t0), n)
	return n
}

// wireTwin is vignat's wire mode rebuilt in-process the way
// nfkit.Main builds it (one worker, 2 ms idle park), its worker loop
// driven and timed by the benchmark.
type wireTwin struct {
	busy, pkts int64
	idleUs     []float64
	ports      []*timedTransport
	nat        *nat.Sharded
	leaked     int
	tester     *wireTester
}

func runWireTwin(d time.Duration, seed int64) (*wireTwin, error) {
	sock, err := openWireSockets()
	if err != nil {
		return nil, err
	}
	defer sock.close()
	clock := libvig.NewSystemClock()
	b, err := buildWireNAT(clock)
	if err != nil {
		return nil, err
	}
	tw := &wireTwin{nat: b.sharded}
	var pools []*dpdk.Mempool
	var ports []*dpdk.Port
	for i, peer := range []int{sock.intPort, sock.extPort} {
		tr, err := dpdk.NewUDPTransport(dpdk.SocketConfig{
			Local: "127.0.0.1:0", Peer: fmt.Sprintf("127.0.0.1:%d", peer), Clock: clock,
		})
		if err != nil {
			return nil, err
		}
		tt := &timedTransport{UDPTransport: tr}
		pool, err := dpdk.NewMempool(4096)
		if err != nil {
			return nil, err
		}
		port, err := dpdk.NewPortOn(uint16(i), tt, []*dpdk.Mempool{pool})
		if err != nil {
			return nil, err
		}
		defer port.Close()
		tw.ports, pools, ports = append(tw.ports, tt), append(pools, pool), append(ports, port)
	}
	pipe, err := nf.NewPipeline(tw.nat, nf.Config{
		Internal: ports[0], External: ports[1], Clock: clock, IdleWait: 2 * time.Millisecond,
		FastPath: nf.FastPathDisabled, Telemetry: nf.TelemetryDisabled,
	})
	if err != nil {
		return nil, err
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var pollErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			t0 := now()
			n, err := pipe.PollWorker(0)
			dt := since(t0)
			if err != nil && pollErr == nil {
				pollErr = err
			}
			if n == 0 {
				tw.idleUs = append(tw.idleUs, float64(dt)/1e3)
				continue
			}
			tw.busy += int64(dt)
			tw.pkts += int64(n)
		}
	}()
	natInt, err1 := parseAddr(ports[0].Transport().(*timedTransport).LocalAddr(0))
	natExt, err2 := parseAddr(ports[1].Transport().(*timedTransport).LocalAddr(0))
	if err1 == nil && err2 == nil {
		tw.tester = newWireTester(sock, natInt, natExt, seed)
		if err = tw.tester.run(0); err == nil {
			err = tw.tester.run(d)
		}
		tw.tester.drainQuiet()
	}
	stop.Store(true)
	wg.Wait()
	for _, e := range []error{err1, err2, err, pollErr} {
		if e != nil {
			return nil, e
		}
	}
	for _, p := range pools {
		tw.leaked += p.InUse()
	}
	return tw, nil
}

// fetchProfile asks the daemon's pprof endpoint for a CPU profile.
func fetchProfile(addr string, secs int) ([]byte, error) {
	c := &http.Client{Timeout: time.Duration(secs+30) * time.Second}
	resp, err := c.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, secs))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("pprof: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// traceWire is nat-udp-wire's traced run: a third of the time against
// the daemon untraced, a third with the daemon under its own CPU
// profiler (fetched from /debug/pprof), a third against the in-process
// twin whose bursts and polls the benchmark times, then the replay of
// the daemon's frames through every layer.
func traceWire(o options, res *result, d *daemon, t *wireTester, sock *wireSockets) (*result, error) {
	phase := time.Duration(o.seconds / 3 * float64(time.Second))
	rate := func() (float64, error) {
		done := t.completed
		start := now()
		if err := t.run(phase); err != nil {
			return 0, err
		}
		return 2 * float64(t.completed-done) / since(start).Seconds() / 1e6, nil
	}
	t.rttUs, t.slices = nil, nil
	mpA, err := rate()
	if err != nil {
		return nil, err
	}
	p95 := sliceQuantile(t.rttUs, t.slices, 0.95)
	secs := max(int(phase/time.Second), 1)
	type profResult struct {
		b   []byte
		err error
	}
	pc := make(chan profResult, 1)
	go func() {
		b, err := fetchProfile(d.metrics, secs)
		pc <- profResult{b, err}
	}()
	mpB, err := rate()
	if err != nil {
		return nil, err
	}
	pr := <-pc
	if pr.err != nil {
		return nil, pr.err
	}
	shares, _, err := selfShares(pr.b, map[string]string{"main": "other"})
	if err != nil {
		return nil, err
	}
	t.drainQuiet()
	res.Attempted += t.attempted
	res.Failed += t.failed
	if err := d.stop(); err != nil {
		return nil, err
	}

	tw, err := runWireTwin(phase, o.seed)
	if err != nil {
		return nil, err
	}
	res.Attempted += tw.tester.attempted
	res.Failed += tw.tester.failed
	if tw.leaked != 0 || d.queueDrops() != 0 {
		res.Correct = false
	}
	st := tw.nat.Stats()
	sent := float64(t.sends)
	x := extras{
		pollNs:      float64(tw.busy) / float64(max(tw.pkts, 1)),
		overheadPct: (mpA/mpB - 1) * 100,
		p95:         p95,
		shares:      shares,
		created:     float64(st.FlowsCreated),
		expired:     float64(st.FlowsExpired),
		occ:         float64(tw.nat.Flows()),
		queueDrops:  d.queueDrops(),
		idlePolls:   float64(len(tw.idleUs)),
		deliverNs:   float64(t.deliver.ns) / sent,
		drainNs:     float64(t.drain.ns) / float64(max(t.drain.n, 1)),
		check:       float64(t.check.ns) / float64(max(t.check.n, 1)),
	}
	L, err := replay(replayCfg{build: buildWireNAT, texp: nat.DefaultTimeout, extIP: wireExtIP}, t.log)
	if err != nil {
		return nil, err
	}
	setLayers(res, L, x)
	var rx, tx acc
	var bursts int64
	for _, p := range tw.ports {
		rx.ns, rx.n = rx.ns+p.rx.ns, rx.n+p.rx.n
		tx.ns, tx.n = tx.ns+p.tx.ns, tx.n+p.tx.n
		bursts += p.bursts
	}
	res.set("dpdk.udp_rx_ns", rx.per(), "ns")
	res.set("dpdk.udp_tx_ns", tx.per(), "ns")
	res.set("dpdk.rx_burst_fill", float64(rx.n)/float64(max(bursts, 1)), "count")
	res.set("nf.idle_poll_us", median(tw.idleUs), "us")
	return res, nil
}

// buildWireNAT builds the NAT the way cmd/vignat does for one shard.
func buildWireNAT(clock libvig.Clock) (*built, error) {
	cfg := core.DefaultConfig(wireExtIP)
	cfg.Capacity, cfg.Timeout = nat.DefaultCapacity, nat.DefaultTimeout
	s, err := nat.NewSharded(cfg, clock, 1)
	if err != nil {
		return nil, err
	}
	return &built{top: s, sharded: s}, nil
}
