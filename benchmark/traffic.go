package main

import (
	"encoding/binary"
)

// rng is splitmix64. The benchmark owns its random source so a seed
// yields the same bytes under every Go release.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// textLike returns n bytes resembling protocol text — lowercase letters,
// digits, spaces and line breaks in fixed proportions — with one of
// words planted at per-position probability wordProb. Line breaks matter:
// every `[^\n]` gap rule resets on them.
func textLike(n int, seed uint64, words []string, wordProb float64) []byte {
	r := rng(seed)
	threshold := uint64(wordProb * (1 << 32))
	out := make([]byte, 0, n+32)
	for len(out) < n {
		v := r.next()
		if len(words) > 0 && v&0xffffffff < threshold {
			out = append(out, words[int((v>>32)*uint64(len(words))>>32)]...)
			continue
		}
		pick := v >> 40
		switch c := (v >> 32) % 20; {
		case c < 2:
			out = append(out, '\n')
		case c < 5:
			out = append(out, ' ')
		case c < 8:
			out = append(out, byte('0'+pick%10))
		default:
			out = append(out, byte('a'+pick%26))
		}
	}
	return out[:n]
}

const (
	pcapGlobalHdr = 24
	pcapRecordHdr = 16
	frameHdrLen   = 14 + 20 + 20 // Ethernet + IPv4 + TCP, no options
	flagFIN       = 1 << 0
	flagSYN       = 1 << 1
	flagPSH       = 1 << 3
	flagACK       = 1 << 4
	serverIP      = 0xc0a80101 // 192.168.1.1
	clientNet     = 0x0a000000 // 10.0.0.0/8, host part = flow index + 1
)

// packet locates one frame of a synthesized capture and says what it
// carries, so the harness can replay, pace and account per packet
// without decoding.
type packet struct {
	off     int   // frame offset in trace.pcap
	flen    int   // frame length
	flow    int   // flow index
	seqOff  int   // offset of the payload in its flow's stream
	plen    int   // payload bytes (0 for SYN/FIN)
	cumPrev int64 // payload bytes carried by all earlier packets
}

// trace is one synthesized capture: classic little-endian pcap bytes of
// interleaved TCP flows, plus the index the harness works from.
type trace struct {
	pcap     []byte
	packets  []packet
	payloads [][]byte // per flow, before segmentation: the reference input
	bytes    int64    // total payload
}

// flowIndex recovers the flow index the synthesizer encoded in a
// client address.
func flowIndex(srcIP uint32) int { return int(srcIP&0xffffff) - 1 }

// synthesize builds a capture of the given flow payloads: a SYN per
// flow, then MSS-sized segments of randomly chosen unfinished flows (as
// concurrent connections interleave on a link), each flow closed by a
// FIN. With probability oooProb a segment is held back and emitted right
// after its flow's next segment, so that share of segments reaches the
// reassembler ahead of a gap.
func synthesize(payloads [][]byte, mss int, oooProb float64, seed uint64) *trace {
	r := rng(seed)
	tr := &trace{payloads: payloads}
	size := pcapGlobalHdr
	for _, p := range payloads {
		segs := (len(p) + mss - 1) / mss
		size += (segs+2)*(pcapRecordHdr+frameHdrLen) + len(p)
		tr.bytes += int64(len(p))
	}
	buf := make([]byte, pcapGlobalHdr, size)
	binary.LittleEndian.PutUint32(buf[0:], 0xa1b2c3d4)
	binary.LittleEndian.PutUint16(buf[4:], 2)
	binary.LittleEndian.PutUint16(buf[6:], 4)
	binary.LittleEndian.PutUint32(buf[16:], 65535)
	binary.LittleEndian.PutUint32(buf[20:], 1) // Ethernet

	var usec uint64
	var cum int64
	emit := func(flow int, seqOff int, flags byte, payload []byte) {
		usec += 50 + uint64(r.intn(400))
		flen := frameHdrLen + len(payload)
		var hdr [pcapRecordHdr + frameHdrLen]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(usec/1e6))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(usec%1e6))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(flen))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(flen))
		f := hdr[pcapRecordHdr:]
		copy(f[0:], []byte{0x02, 0, 0, 0, 0, 0x02, 0x02, 0, 0, 0, 0, 0x01, 0x08, 0x00})
		ip := f[14:]
		ip[0] = 0x45
		binary.BigEndian.PutUint16(ip[2:], uint16(flen-14))
		ip[8] = 64
		ip[9] = 6
		binary.BigEndian.PutUint32(ip[12:], clientNet|uint32(flow+1))
		binary.BigEndian.PutUint32(ip[16:], serverIP)
		tcp := ip[20:]
		binary.BigEndian.PutUint16(tcp[0:], uint16(20000+flow))
		binary.BigEndian.PutUint16(tcp[2:], 80)
		// The SYN takes sequence number 0; stream offset o rides seq o+1.
		seq := uint32(seqOff) + 1
		if flags&flagSYN != 0 {
			seq = 0
		}
		binary.BigEndian.PutUint32(tcp[4:], seq)
		tcp[12] = 5 << 4
		tcp[13] = flags
		binary.BigEndian.PutUint16(tcp[14:], 65535)
		tr.packets = append(tr.packets, packet{
			off: len(buf) + pcapRecordHdr, flen: flen, flow: flow,
			seqOff: seqOff, plen: len(payload), cumPrev: cum,
		})
		cum += int64(len(payload))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
	}

	off := make([]int, len(payloads))
	held := make([][2]int, len(payloads)) // a flow's segment waiting for its successor; {0,0} = none
	active := make([]int, len(payloads))
	for i := range payloads {
		emit(i, 0, flagSYN, nil)
		active[i] = i
	}
	for len(active) > 0 {
		slot := r.intn(len(active))
		f := active[slot]
		p := payloads[f]
		if off[f] >= len(p) {
			emit(f, len(p), flagFIN|flagACK, nil)
			active[slot] = active[len(active)-1]
			active = active[:len(active)-1]
			continue
		}
		start := off[f]
		end := start + mss
		if end > len(p) {
			end = len(p)
		}
		off[f] = end
		// Never hold a flow's last segment: its FIN must not overtake it.
		if h := held[f]; h[1] == 0 && end < len(p) && oooProb > 0 && r.float() < oooProb {
			held[f] = [2]int{start, end}
			continue
		}
		emit(f, start, flagACK|flagPSH, p[start:end])
		if h := held[f]; h[1] != 0 {
			emit(f, h[0], flagACK|flagPSH, p[h[0]:h[1]])
			held[f] = [2]int{}
		}
	}
	tr.pcap = buf
	return tr
}

// head returns the first n packets of the capture as a capture of its
// own, sharing storage with tr. Flows are cut mid-stream; every consumer
// treats that as a capture that simply ends.
func (tr *trace) head(n int) *trace {
	if n >= len(tr.packets) {
		return tr
	}
	h := &trace{packets: tr.packets[:n], payloads: tr.payloads, pcap: tr.pcap[:pcapGlobalHdr]}
	if n > 0 {
		last := tr.packets[n-1]
		h.pcap = tr.pcap[:last.off+last.flen]
		h.bytes = last.cumPrev + int64(last.plen)
	}
	return h
}

// arrival says that once packet pkt had arrived, its flow's stream was
// contiguous up to (not including) offset end.
type arrival struct {
	end int
	pkt int
}

// reassemble replays the capture through an ideal reassembler with
// unbounded buffering: per flow, the packets that advanced the in-order
// stream and how far. The last entry of a flow is how many of its bytes
// a loss-free scanner must have seen.
func (tr *trace) reassemble() [][]arrival {
	out := make([][]arrival, len(tr.payloads))
	next := make([]int, len(tr.payloads))
	pending := make([]map[int]int, len(tr.payloads))
	for i, p := range tr.packets {
		if p.plen == 0 {
			continue
		}
		f := p.flow
		if p.seqOff != next[f] {
			if pending[f] == nil {
				pending[f] = map[int]int{}
			}
			pending[f][p.seqOff] = p.plen
			continue
		}
		next[f] += p.plen
		for {
			n, ok := pending[f][next[f]]
			if !ok {
				break
			}
			delete(pending[f], next[f])
			next[f] += n
		}
		out[f] = append(out[f], arrival{end: next[f], pkt: i})
	}
	return out
}
