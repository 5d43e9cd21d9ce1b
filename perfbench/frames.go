package main

import (
	"encoding/binary"

	"vignat/internal/flow"
)

// The benchmark builds and reads its frames with its own code, not
// netstack's: what it checks must be computed apart from what it
// checks. Frames are Ethernet + IPv4 (no options) + UDP or TCP, with a
// tag in the first payload bytes that names the input a frame came
// from, so every output can be matched to its input whatever order the
// engine emits them in.

const (
	ethLen   = 14
	ipLen    = 20
	udpLen   = 8
	tcpLen   = 20
	tagLen   = 8
	minFrame = 64
)

// l4Len returns the L4 header length of proto.
func l4Len(proto flow.Protocol) int {
	if proto == flow.TCP {
		return tcpLen
	}
	return udpLen
}

// minSize is the smallest frame that carries a tag for proto.
func minSize(proto flow.Protocol) int {
	n := ethLen + ipLen + l4Len(proto) + tagLen
	if n < minFrame {
		n = minFrame
	}
	return n
}

// rfc1071 is the Internet checksum's one's-complement sum of data
// folded onto initial, complemented.
func rfc1071(data []byte, initial uint32) uint16 {
	sum := initial
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoSum is the L4 pseudo-header's partial sum.
func pseudoSum(src, dst flow.Addr, proto flow.Protocol, l4len int) uint32 {
	return uint32(src>>16) + uint32(src&0xffff) + uint32(dst>>16) + uint32(dst&0xffff) +
		uint32(proto) + uint32(l4len)
}

// craft writes a size-byte frame carrying id and tag into buf and
// returns it. size is clamped up to minSize; the bytes past the tag
// are zero. Both checksums are computed.
func craft(buf []byte, id flow.ID, size int, tag uint64) []byte {
	if m := minSize(id.Proto); size < m {
		size = m
	}
	f := buf[:size]
	clear(f)
	binary.BigEndian.PutUint16(f[12:14], 0x0800)
	ip := f[ethLen:]
	hl := l4Len(id.Proto)
	total := size - ethLen
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:4], uint16(total))
	ip[8] = 64
	ip[9] = byte(id.Proto)
	binary.BigEndian.PutUint32(ip[12:16], uint32(id.SrcIP))
	binary.BigEndian.PutUint32(ip[16:20], uint32(id.DstIP))
	binary.BigEndian.PutUint16(ip[10:12], rfc1071(ip[:ipLen], 0))
	l4 := ip[ipLen:total]
	binary.BigEndian.PutUint16(l4[0:2], id.SrcPort)
	binary.BigEndian.PutUint16(l4[2:4], id.DstPort)
	binary.BigEndian.PutUint64(l4[hl:hl+tagLen], tag)
	ck := 6
	if id.Proto == flow.TCP {
		l4[12] = tcpLen / 4 << 4
		l4[13] = 0x10 // ACK
		binary.BigEndian.PutUint16(l4[14:16], 0xffff)
		ck = 16
	} else {
		binary.BigEndian.PutUint16(l4[4:6], uint16(len(l4)))
	}
	c := rfc1071(l4, pseudoSum(id.SrcIP, id.DstIP, id.Proto, len(l4)))
	if c == 0 && id.Proto == flow.UDP {
		c = 0xffff
	}
	binary.BigEndian.PutUint16(l4[ck:ck+2], c)
	return f
}

// decoded is what the checker reads back from an output frame.
type decoded struct {
	id     flow.ID
	tag    uint64
	csumOK bool
	ok     bool
}

// decode parses a frame written by craft (after any rewrite) and
// re-sums both checksums.
func decode(f []byte) decoded {
	var d decoded
	if len(f) < ethLen+ipLen+udpLen || binary.BigEndian.Uint16(f[12:14]) != 0x0800 {
		return d
	}
	ip := f[ethLen:]
	ihl := int(ip[0]&0xf) * 4
	total := int(binary.BigEndian.Uint16(ip[2:4]))
	if ip[0]>>4 != 4 || ihl < ipLen || total > len(ip) || total < ihl {
		return d
	}
	d.id.Proto = flow.Protocol(ip[9])
	d.id.SrcIP = flow.Addr(binary.BigEndian.Uint32(ip[12:16]))
	d.id.DstIP = flow.Addr(binary.BigEndian.Uint32(ip[16:20]))
	l4 := ip[ihl:total]
	hl := l4Len(d.id.Proto)
	if (d.id.Proto != flow.UDP && d.id.Proto != flow.TCP) || len(l4) < hl+tagLen {
		return d
	}
	d.id.SrcPort = binary.BigEndian.Uint16(l4[0:2])
	d.id.DstPort = binary.BigEndian.Uint16(l4[2:4])
	d.tag = binary.BigEndian.Uint64(l4[hl : hl+tagLen])
	d.ok = true
	ipOK := rfc1071(ip[:ihl], 0) == 0
	l4OK := true
	if !(d.id.Proto == flow.UDP && binary.BigEndian.Uint16(l4[6:8]) == 0) {
		l4OK = rfc1071(l4, pseudoSum(d.id.SrcIP, d.id.DstIP, d.id.Proto, len(l4))) == 0
	}
	d.csumOK = ipOK && l4OK
	return d
}
