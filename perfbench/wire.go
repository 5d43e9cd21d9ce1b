package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vignat/internal/core"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat/stateless"
	"vignat/internal/nf"
	"vignat/internal/vigor/spec"
)

// --- nat-udp-wire ----------------------------------------------------
//
// The shipped vignat daemon in UDP wire mode over loopback, one
// worker, run the way scripts/wire_smoke.sh runs it (so with the
// daemon's own idle park). A single-process tester holds one socket
// per NAT side and keeps wireInFlight request/reply exchanges in flight
// over wireSessions long-lived sessions of 64-byte frames: it sends a
// request on the internal side, answers the translated request on the
// external side as the server would, and times the round trip to the
// restored reply.

const (
	wireSessions = 64
	// wireInFlight is one: with more, the exchanges fall into convoys
	// phase-locked to the daemon's idle park, and the packet rate
	// switches between regimes from run to run (see README).
	wireInFlight = 1
	wireSetups   = 5
	wireTimeout  = time.Second // an exchange not back by then is lost
	wireFrame    = 64
	// wireLogRounds bounds the frames the traced run replays (one frame
	// a round).
	wireLogRounds = 20000
)

// wireExtIP is the daemon's external address (cmd/vignat's EXT_IP).
var wireExtIP = core.IPv4(198, 18, 1, 1)

// daemon is one running vignat process.
type daemon struct {
	cmd     *exec.Cmd
	intAddr syscall.SockaddrInet4
	extAddr syscall.SockaddrInet4
	metrics string // host:port of /metrics, when served
	lines   chan string
	done    chan error
	output  []string
	exitErr error
	ended   bool
}

// parseAddr reads "ip:port" into a sockaddr.
func parseAddr(s string) (syscall.SockaddrInet4, error) {
	var sa syscall.SockaddrInet4
	host, port, ok := strings.Cut(s, ":")
	if !ok {
		return sa, fmt.Errorf("bad address %q", s)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return sa, err
	}
	var ip [4]int
	if _, err := fmt.Sscanf(host, "%d.%d.%d.%d", &ip[0], &ip[1], &ip[2], &ip[3]); err != nil {
		return sa, fmt.Errorf("bad address %q", s)
	}
	for i := range ip {
		sa.Addr[i] = byte(ip[i])
	}
	sa.Port = p
	return sa, nil
}

// startDaemon launches vignat wired to the tester's two sockets and
// waits until it reports its own addresses.
func startDaemon(bin string, tester *wireSockets, watchdog time.Duration, metrics bool) (*daemon, error) {
	args := []string{
		"-verify=false", "-transport", "udp", "-shards", "1", "-workers", "1", "-telemetry", "-1",
		"-int-local", "127.0.0.1:0", "-int-peer", fmt.Sprintf("127.0.0.1:%d", tester.intPort),
		"-ext-local", "127.0.0.1:0", "-ext-peer", fmt.Sprintf("127.0.0.1:%d", tester.extPort),
		"-duration", watchdog.String(),
	}
	if metrics {
		args = append(args, "-metrics", "127.0.0.1:0")
	}
	d := &daemon{cmd: exec.Command(bin, args...), lines: make(chan string, 64), done: make(chan error, 1)}
	d.cmd.Stderr = os.Stderr
	// The daemon reads the flow cache's setting from its environment;
	// the workload fixes it (off, the daemon's default) whatever the
	// caller's environment says.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, nf.FastPathEnv+"=") {
			d.cmd.Env = append(d.cmd.Env, kv)
		}
	}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
		_, _ = io.Copy(io.Discard, out)
		close(d.lines)
		d.done <- d.cmd.Wait()
	}()
	deadline := time.After(30 * time.Second)
	var haveInt, haveExt bool
	for !(haveInt && haveExt && (d.metrics != "" || !metrics)) {
		select {
		case line, ok := <-d.lines:
			if !ok {
				d.lines = nil
				return nil, errors.New("vignat exited before it was ready")
			}
			d.output = append(d.output, line)
			f := strings.Fields(line)
			switch {
			case len(f) == 4 && f[0] == "internal" && f[1] == "port:":
				d.intAddr, err = parseAddr(f[3])
				haveInt = err == nil
			case len(f) == 4 && f[0] == "external" && f[1] == "port:":
				d.extAddr, err = parseAddr(f[3])
				haveExt = err == nil
			case len(f) > 1 && f[0] == "metrics:":
				d.metrics = strings.TrimSuffix(strings.TrimPrefix(f[1], "http://"), "/metrics")
			}
			if err != nil {
				d.kill()
				return nil, err
			}
		case <-deadline:
			d.kill()
			return nil, errors.New("vignat did not report its addresses")
		}
	}
	return d, nil
}

// peakRSSMB reads the daemon's peak resident set.
func (d *daemon) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stop ends the daemon with SIGINT, the way an operator does, and
// waits for it. It reports an error unless the daemon exited cleanly
// with its mbuf accounting intact.
func (d *daemon) stop() error {
	if d.ended {
		return d.exitErr
	}
	_ = d.cmd.Process.Signal(os.Interrupt)
	timer := time.AfterFunc(15*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer timer.Stop()
	for line := range d.lines {
		d.output = append(d.output, line)
	}
	err := <-d.done
	d.ended = true
	clean := false
	for _, line := range d.output {
		if strings.Contains(line, "mbuf accounting clean") {
			clean = true
		}
	}
	switch {
	case err != nil:
		d.exitErr = fmt.Errorf("vignat: %v", err)
	case !clean:
		d.exitErr = errors.New("vignat did not report clean mbuf accounting")
	}
	return d.exitErr
}

// kill ends the daemon without ceremony (error paths).
func (d *daemon) kill() {
	if d.ended {
		return
	}
	_ = d.cmd.Process.Kill()
	if d.lines != nil {
		for range d.lines {
		}
	}
	<-d.done
	d.ended = true
}

// queueDrops sums the RX/TX drop counters the daemon printed at exit.
func (d *daemon) queueDrops() float64 {
	total := 0.0
	for _, line := range d.output {
		for _, f := range strings.Fields(line) {
			if k, v, ok := strings.Cut(f, "="); ok && (k == "rx_dropped" || k == "tx_dropped") {
				n, _ := strconv.ParseFloat(v, 64)
				total += n
			}
		}
	}
	return total
}

// wireSockets are the tester's two UDP sockets, one per NAT side.
type wireSockets struct {
	intFd, extFd     int
	intPort, extPort int
	epfd             int
}

func openWireSockets() (*wireSockets, error) {
	s := &wireSockets{intFd: -1, extFd: -1, epfd: -1}
	open := func() (int, int, error) {
		fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
		if err != nil {
			return -1, 0, err
		}
		_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, 1<<20)
		if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
			syscall.Close(fd)
			return -1, 0, err
		}
		sa, err := syscall.Getsockname(fd)
		if err != nil {
			syscall.Close(fd)
			return -1, 0, err
		}
		return fd, sa.(*syscall.SockaddrInet4).Port, nil
	}
	var err error
	if s.intFd, s.intPort, err = open(); err != nil {
		s.close()
		return nil, err
	}
	if s.extFd, s.extPort, err = open(); err != nil {
		s.close()
		return nil, err
	}
	if s.epfd, err = syscall.EpollCreate1(syscall.EPOLL_CLOEXEC); err != nil {
		s.close()
		return nil, err
	}
	for _, fd := range []int{s.intFd, s.extFd} {
		ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(fd)}
		if err := syscall.EpollCtl(s.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *wireSockets) close() {
	for _, fd := range []int{s.intFd, s.extFd, s.epfd} {
		if fd >= 0 {
			syscall.Close(fd)
		}
	}
}

// wireSession is one long-lived session of the tester.
type wireSession struct {
	intKey   flow.ID
	extPort  uint16
	busy     bool
	exchange uint64 // the exchange in flight
	sentAt   time.Duration
}

// wireTester drives closed-loop exchanges against one NAT and checks
// every frame that comes back against the RFC 3022 oracle.
type wireTester struct {
	sock     *wireSockets
	natInt   syscall.SockaddrInet4
	natExt   syscall.SockaddrInet4
	sess     []wireSession
	oracle   *spec.Oracle
	start    time.Duration
	nextSess int
	nextTag  uint64
	inFlight int
	buf      []byte
	rbuf     []byte
	events   []syscall.EpollEvent

	rttUs     []float64
	slices    []int           // rttUs index where each slice ends
	sliceAt   []time.Duration // when the last run started, then when each slice ended
	completed int64
	attempted int64
	failed    int64
	log       *roundLog // the frames the NAT received, for the traced replay

	// The tester's own costs: sending (deliver), receiving and decoding
	// (drain), and the oracle (check).
	deliver, drain, check acc
	sends                 int64
}

func newWireTester(sock *wireSockets, natInt, natExt syscall.SockaddrInet4, seed int64) *wireTester {
	t := &wireTester{
		sock: sock, natInt: natInt, natExt: natExt,
		oracle: spec.NewOracle(65535, 2*time.Second.Nanoseconds(), wireExtIP, 1, 65535),
		start:  time.Since(epoch),
		buf:    make([]byte, 2048), rbuf: make([]byte, 2048),
		events: make([]syscall.EpollEvent, 8),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < wireSessions; i++ {
		t.sess = append(t.sess, wireSession{intKey: flow.ID{
			SrcIP: core.IPv4(10, 7, byte(i>>8), byte(i)) + 1, SrcPort: uint16(1024 + rng.Intn(60000)),
			DstIP: core.IPv4(93, 184, 216, byte(rng.Intn(256))), DstPort: 443, Proto: flow.UDP,
		}})
	}
	return t
}

// now is the oracle's clock: monotonic ns since the tester started.
func (t *wireTester) now() libvig.Time { return int64(time.Since(epoch) - t.start) }

func (t *wireTester) fail(err error) {
	t.failed++
	report(err)
}

// launch starts an exchange on the next idle session.
func (t *wireTester) launch() error {
	for k := 0; k < len(t.sess); k++ {
		i := t.nextSess
		t.nextSess = (t.nextSess + 1) % len(t.sess)
		s := &t.sess[i]
		if s.busy {
			continue
		}
		t.nextTag++
		s.busy, s.exchange = true, t.nextTag
		f := craft(t.buf, s.intKey, wireFrame, t.nextTag<<8|uint64(i))
		t.logFrame(s.intKey, true)
		s.sentAt = time.Since(epoch)
		if err := syscall.Sendto(t.sock.intFd, f, 0, &t.natInt); err != nil {
			return err
		}
		t.deliver.add(since(s.sentAt), 1)
		t.sends++
		t.inFlight++
		t.attempted += 2
		return nil
	}
	return errors.New("no idle session")
}

func (t *wireTester) logFrame(id flow.ID, in bool) {
	if t.log == nil {
		return
	}
	t.log.add(&round{seq: uint32(t.nextTag), now: t.now(), pkts: []pkt{{id: id, size: wireFrame, in: in}}})
}

// session returns the in-flight session a received tag names.
func (t *wireTester) session(tag uint64) *wireSession {
	i := int(tag & 0xff)
	if i >= len(t.sess) || !t.sess[i].busy || t.sess[i].exchange != tag>>8 {
		return nil
	}
	return &t.sess[i]
}

// onExternal answers translated requests as the server would.
func (t *wireTester) onExternal() error {
	for {
		t0 := now()
		n, _, err := syscall.Recvfrom(t.sock.extFd, t.rbuf, 0)
		if err == syscall.EAGAIN {
			return nil
		}
		if err != nil {
			return err
		}
		d := decode(t.rbuf[:n])
		t.drain.add(since(t0), 1)
		s := t.session(d.tag)
		if !d.ok || s == nil {
			continue // a late frame of an exchange already counted lost
		}
		reply := flow.ID{SrcIP: d.id.DstIP, SrcPort: d.id.DstPort, DstIP: d.id.SrcIP, DstPort: d.id.SrcPort, Proto: d.id.Proto}
		f := craft(t.buf, reply, wireFrame, d.tag)
		t.logFrame(reply, false)
		t0 = now()
		if err := syscall.Sendto(t.sock.extFd, f, 0, &t.natExt); err != nil {
			return err
		}
		t.deliver.add(since(t0), 1)
		t.sends++
		t0 = now()
		err = t.oracle.Step(s.intKey, true, true, t.now(),
			spec.Observed{Verdict: stateless.VerdictToExternal, Tuple: d.id})
		t.check.add(since(t0), 1)
		if err == nil && !d.csumOK {
			err = fmt.Errorf("translated request %v fails its checksum", d.id)
		}
		if err != nil {
			t.fail(err)
		}
		s.extPort = d.id.SrcPort
	}
}

// onInternal takes restored replies, times them and starts the next
// exchange.
func (t *wireTester) onInternal() error {
	for {
		n, _, err := syscall.Recvfrom(t.sock.intFd, t.rbuf, 0)
		if err == syscall.EAGAIN {
			return nil
		}
		if err != nil {
			return err
		}
		at := time.Since(epoch)
		d := decode(t.rbuf[:n])
		t.drain.add(since(at), 1)
		s := t.session(d.tag)
		if !d.ok || s == nil {
			continue
		}
		t.rttUs = append(t.rttUs, float64(at-s.sentAt)/1e3)
		s.busy = false
		t.inFlight--
		t.completed++
		if err := t.launch(); err != nil {
			return err
		}
		k := s.intKey
		arrived := flow.ID{SrcIP: k.DstIP, SrcPort: k.DstPort, DstIP: wireExtIP, DstPort: s.extPort, Proto: k.Proto}
		t0 := now()
		err = t.oracle.Step(arrived, false, true, t.now(),
			spec.Observed{Verdict: stateless.VerdictToInternal, Tuple: d.id})
		t.check.add(since(t0), 1)
		if err == nil && !d.csumOK {
			err = fmt.Errorf("restored reply %v fails its checksum", d.id)
		}
		if err != nil {
			t.fail(err)
		}
	}
}

// run keeps the exchanges going until d has elapsed, or (d == 0) until
// the first exchange completes.
func (t *wireTester) run(d time.Duration) error {
	start := time.Since(epoch)
	want := wireInFlight
	if d == 0 {
		want = 1
	}
	for t.inFlight < want {
		if err := t.launch(); err != nil {
			return err
		}
	}
	next := sliceLen
	t.sliceAt = append(t.sliceAt[:0], start)
	for {
		el := time.Since(epoch) - start
		if (d == 0 && t.completed > 0) || (d > 0 && el >= d) {
			t.slices = append(t.slices, len(t.rttUs))
			t.sliceAt = append(t.sliceAt, start+el)
			return nil
		}
		if el >= next {
			t.slices = append(t.slices, len(t.rttUs))
			t.sliceAt = append(t.sliceAt, start+el)
			next += sliceLen
		}
		if d == 0 && el > 30*time.Second {
			return errors.New("the first exchange never completed")
		}
		n, err := syscall.EpollWait(t.sock.epfd, t.events, 100)
		if err != nil && err != syscall.EINTR {
			return err
		}
		for _, ev := range t.events[:max(n, 0)] {
			if int(ev.Fd) == t.sock.extFd {
				err = t.onExternal()
			} else {
				err = t.onInternal()
			}
			if err != nil {
				return err
			}
		}
		t.expireLost()
	}
}

// sliceRate is the median over whole slices of the packets the NAT
// forwarded per second (two per exchange), in Mpps.
func (t *wireTester) sliceRate() float64 {
	var rates []float64
	lo := 0
	for i, hi := range t.slices {
		if dt := t.sliceAt[i+1] - t.sliceAt[i]; dt >= sliceLen/2 { // not a stub at the end
			rates = append(rates, 2*float64(hi-lo)/dt.Seconds()/1e6)
		}
		lo = hi
	}
	return median(rates)
}

// expireLost counts exchanges that never came back as failed and
// starts fresh ones in their place.
func (t *wireTester) expireLost() {
	now := time.Since(epoch)
	for i := range t.sess {
		s := &t.sess[i]
		if s.busy && now-s.sentAt > wireTimeout {
			s.busy = false
			t.inFlight--
			t.fail(fmt.Errorf("exchange on %v lost", s.intKey))
			_ = t.launch()
		}
	}
}

// drainQuiet waits for in-flight exchanges to finish without starting
// new ones, so the daemon stops with nothing on the wire.
func (t *wireTester) drainQuiet() {
	deadline := time.Since(epoch) + wireTimeout
	for t.inFlight > 0 && time.Since(epoch) < deadline {
		n, _ := syscall.EpollWait(t.sock.epfd, t.events, 10)
		for _, ev := range t.events[:max(n, 0)] {
			if int(ev.Fd) == t.sock.extFd {
				_ = t.onExternal()
				continue
			}
			for {
				m, _, err := syscall.Recvfrom(t.sock.intFd, t.rbuf, 0)
				if err != nil {
					break
				}
				if s := t.session(decode(t.rbuf[:m]).tag); s != nil {
					s.busy = false
					t.inFlight--
				}
			}
		}
	}
}

// runWire runs nat-udp-wire: set-ups (daemon start to first round
// trip), then the timed exchanges, or the traced run.
func runWire(o options) (*result, error) {
	rig("udp-loopback")
	if o.vignat == "" {
		return nil, errors.New("nat-udp-wire needs --vignat")
	}
	sock, err := openWireSockets()
	if err != nil {
		return nil, err
	}
	defer sock.close()
	watchdog := time.Duration(o.seconds*float64(time.Second)) + 120*time.Second
	res := &result{Correct: true}
	var setups []float64
	var d *daemon
	var t *wireTester
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for k := 0; k < wireSetups; k++ {
		start := time.Now()
		if d, err = startDaemon(o.vignat, sock, watchdog, o.trace); err != nil {
			return nil, err
		}
		t = newWireTester(sock, d.intAddr, d.extAddr, o.seed)
		if o.trace && k == wireSetups-1 {
			t.log = &roundLog{limit: wireLogRounds}
		}
		if err := t.run(0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < wireSetups-1 {
			t.drainQuiet()
			res.Attempted += t.attempted
			res.Failed += t.failed
			if err := d.stop(); err != nil {
				return nil, err
			}
			d = nil
		}
	}
	if o.trace {
		return traceWire(o, res, d, t, sock)
	}
	t.rttUs, t.slices, t.completed = nil, nil, 0
	measure := time.Duration(o.seconds * float64(time.Second))
	start := time.Since(epoch)
	if err := t.run(measure); err != nil {
		return nil, err
	}
	elapsed := time.Since(epoch) - start
	completed := t.completed
	mem := d.peakRSSMB()
	t.drainQuiet()
	res.Attempted += t.attempted
	res.Failed += t.failed
	if err := d.stop(); err != nil {
		return nil, err
	}
	if d.queueDrops() != 0 {
		res.Correct = false
	}
	d = nil
	res.set("setup_s", median(setups), "s")
	res.set("pkt_mpps", t.sliceRate(), "Mpps")
	res.set("mem_mb", mem, "MB")
	res.set("rtt_p50_us", quantile(t.rttUs, 0.5), "us")
	fmt.Fprintf(os.Stderr, "nat-udp-wire: %d exchanges in %.2fs, set-ups %.3f s\n", completed, elapsed.Seconds(), setups)
	return res, nil
}
