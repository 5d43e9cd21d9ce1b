package main

import (
	"encoding/binary"
	"testing"
)

// The checkers must catch what they exist to catch. Each case runs one
// real round through a set-up engine, plants a fault in the harness's
// own copy of one output (never in the engine), and expects exactly one
// failed operation; the untouched round must pass clean.

type plant func(t *testing.T, outs []output) []output

// firstOut picks the first output that left on the external port.
func firstOut(t *testing.T, outs []output) int {
	for i, o := range outs {
		if o.toExt {
			return i
		}
	}
	t.Fatal("no output left on the external port")
	return -1
}

// resum recomputes both checksums of a frame built by craft.
func resum(f []byte) {
	ip := f[ethLen:]
	total := int(binary.BigEndian.Uint16(ip[2:4]))
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint16(ip[10:12], rfc1071(ip[:ipLen], 0))
	d := decode(f)
	l4 := ip[ipLen:total]
	ck := 6
	if len(l4) >= tcpLen && d.id.Proto == 6 {
		ck = 16
	}
	binary.BigEndian.PutUint16(l4[ck:ck+2], 0)
	c := rfc1071(l4, pseudoSum(d.id.SrcIP, d.id.DstIP, d.id.Proto, len(l4)))
	if c == 0 && ck == 6 {
		c = 0xffff
	}
	binary.BigEndian.PutUint16(l4[ck:ck+2], c)
}

var plants = map[string]struct {
	fault  plant
	failed int
}{
	"clean": {func(t *testing.T, outs []output) []output { return outs }, 0},
	"wrong translation": {func(t *testing.T, outs []output) []output {
		f := outs[firstOut(t, outs)].frame
		port := binary.BigEndian.Uint16(f[ethLen+ipLen:])
		binary.BigEndian.PutUint16(f[ethLen+ipLen:], port^0x4000)
		resum(f) // a well-formed frame: only the translation is wrong
		if !decode(f).csumOK {
			t.Fatal("re-summed frame does not verify")
		}
		return outs
	}, 1},
	"corrupted checksum": {func(t *testing.T, outs []output) []output {
		f := outs[firstOut(t, outs)].frame
		f[len(f)-1] ^= 0x5a
		return outs
	}, 1},
	"lost frame": {func(t *testing.T, outs []output) []output {
		i := firstOut(t, outs)
		return append(outs[:i:i], outs[i+1:]...)
	}, 1},
}

func TestCheckersCountPlantedFaults(t *testing.T) {
	for _, w := range []*memWorkload{&established, &gatewayChurn} {
		s, _, err := setUp(w, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.failed != 0 {
			t.Fatalf("%s: set-up failed %d operations", w.name, s.failed)
		}
		for _, name := range []string{"clean", "wrong translation", "corrupted checksum", "lost frame"} {
			p := plants[name]
			r := &s.pending
			if !s.fresh {
				s.t.next(r)
			}
			s.fresh = false
			e := s.e
			e.craftRound(r)
			polls, err := e.deliver(r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.poll(polls); err != nil {
				t.Fatal(err)
			}
			for _, o := range p.fault(t, e.collect()) {
				e.record(r, o.frame, o.toExt)
			}
			if got := s.t.check(r, e.out, e.bad); got != p.failed {
				t.Errorf("%s, %s: %d failed operations, want %d", w.name, name, got, p.failed)
			}
			e.last = e.pipe.Stats()
		}
	}
}
