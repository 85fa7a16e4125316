// Socket sources: TCP and UDP listeners that treat each accepted
// connection (TCP) or each remote peer (UDP) as one flow. The wire
// bytes never carry Ethernet/IP framing — the source synthesizes the
// flow key and TCP-shaped segment stream itself (a framer), so the
// engine sees exactly what a capture of the same bytes would have
// produced: SYN, in-order data segments, FIN.
package input

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"matchfilter/internal/pcap"
)

// streamChunk bounds the payload bytes of one synthesized segment — a
// single socket read, leased at the length it read.
const streamChunk = 16 << 10

// maxUDPPeers bounds a UDP listener's peer→flow table; when full, the
// oldest half is forgotten (their flows idle out in the engine; a
// returning peer restarts as a fresh flow via SYN).
const maxUDPPeers = 16384

// sourceIDs hands every socket source a process-unique id that is baked
// into its synthesized flow keys, so two sources can never collide on a
// 4-tuple and interleave their payloads into one flow.
var sourceIDs atomic.Uint32

// framer synthesizes the TCP-shaped segment stream for one flow: a SYN
// claiming sequence 0, data from sequence 1, and a FIN at the end —
// mirroring pcap.Synthesize so socket flows and capture flows look
// identical to reassembly. It is a pure state machine (no I/O), which
// is what FuzzSocketFraming drives.
type framer struct {
	key pcap.FlowKey
	seq uint32
}

func newFramer(key pcap.FlowKey) *framer { return &framer{key: key} }

// syn opens the flow. The SYN occupies sequence 0; data starts at 1.
func (f *framer) syn() pcap.Segment {
	f.seq = 1
	return pcap.Segment{Key: f.key, Seq: 0, Flags: pcap.FlagSYN}
}

// data emits one in-order payload segment and advances the sequence.
func (f *framer) data(p []byte) pcap.Segment {
	seg := pcap.Segment{Key: f.key, Seq: f.seq, Flags: pcap.FlagACK | pcap.FlagPSH, Payload: p}
	f.seq += uint32(len(p))
	return seg
}

// fin closes the flow (the engine tears the flow down and recycles its
// runner).
func (f *framer) fin() pcap.Segment {
	return pcap.Segment{Key: f.key, Seq: f.seq, Flags: pcap.FlagFIN | pcap.FlagACK}
}

// synthFlowKey derives the flow key for connection conn of source
// srcID. The real remote IPv4 address and port are used when available
// (so match reports name the actual peer); otherwise the connection
// ordinal stands in as the client address. The destination encodes the
// source id, so keys are collision-free across sources, and the
// SYN-restart path covers 4-tuple reuse by a later connection.
func synthFlowKey(srcID uint32, conn uint32, remote net.Addr, localPort uint16) pcap.FlowKey {
	key := pcap.FlowKey{
		SrcIP:   conn,
		SrcPort: uint16(conn>>16) ^ uint16(conn),
		DstIP:   0x0a000000 | (srcID & 0x00ffffff), // 10.x.y.z encodes the source
		DstPort: localPort,
	}
	switch ra := remote.(type) {
	case *net.TCPAddr:
		if ip4 := ra.IP.To4(); ip4 != nil {
			key.SrcIP = uint32(ip4[0])<<24 | uint32(ip4[1])<<16 | uint32(ip4[2])<<8 | uint32(ip4[3])
			key.SrcPort = uint16(ra.Port)
		}
	case *net.UDPAddr:
		if ip4 := ra.IP.To4(); ip4 != nil {
			key.SrcIP = uint32(ip4[0])<<24 | uint32(ip4[1])<<16 | uint32(ip4[2])<<8 | uint32(ip4[3])
			key.SrcPort = uint16(ra.Port)
		}
	}
	return key
}

// localPortOf extracts the listener port for key synthesis.
func localPortOf(addr net.Addr) uint16 {
	switch la := addr.(type) {
	case *net.TCPAddr:
		return uint16(la.Port)
	case *net.UDPAddr:
		return uint16(la.Port)
	}
	return 0
}

// TCPListener accepts connections and scans each connection's byte
// stream as one flow.
type TCPListener struct {
	Addr string

	id    uint32
	bound atomic.Value // net.Addr once listening (tests bind port 0)
}

// Bound returns the listening address, or nil before Run has bound it.
func (t *TCPListener) Bound() net.Addr {
	a, _ := t.bound.Load().(net.Addr)
	return a
}

// NewTCPListener returns a TCP socket source listening on addr
// (":9999", "127.0.0.1:9999").
func NewTCPListener(addr string) *TCPListener {
	return &TCPListener{Addr: addr, id: sourceIDs.Add(1)}
}

// Describe implements Source.
func (t *TCPListener) Describe() Description {
	return Description{Name: "tcp:" + t.Addr, Kind: "tcp", Detail: t.Addr, Finite: false}
}

// Run implements Source. Listen failures are transient (the address may
// be in TIME_WAIT from a previous run) and restart under the backoff
// policy.
func (t *TCPListener) Run(ctx context.Context, em *Emitter) error {
	ln, err := net.Listen("tcp", t.Addr)
	if err != nil {
		return fmt.Errorf("input: tcp listen %s: %w", t.Addr, err)
	}
	t.bound.Store(ln.Addr())
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	defer ln.Close()

	localPort := localPortOf(ln.Addr())
	var conns atomic.Uint32
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil // listener closed by cancellation: clean stop
			}
			return fmt.Errorf("input: tcp accept %s: %w", t.Addr, err)
		}
		wg.Add(1)
		go func(conn net.Conn, n uint32) {
			defer wg.Done()
			defer conn.Close()
			stopConn := context.AfterFunc(ctx, func() { conn.Close() })
			defer stopConn()
			key := synthFlowKey(t.id, n, conn.RemoteAddr(), localPort)
			pumpStreamConn(em, conn, key)
		}(conn, conns.Add(1))
	}
}

// pumpStreamConn frames one byte-stream connection into SYN / data /
// FIN segments. Read errors just end the flow — a peer resetting its
// connection is traffic, not a source failure.
func pumpStreamConn(em *Emitter, conn net.Conn, key pcap.FlowKey) {
	fr := newFramer(key)
	if em.Segment(fr.syn(), nil) != nil {
		return
	}
	buf := make([]byte, streamChunk)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			lease := em.Lease(n)
			copy(lease.Data(), buf)
			if em.Segment(fr.data(lease.Data()), lease) != nil {
				return // lease ownership transferred (released inside)
			}
		}
		if err != nil {
			_ = em.Segment(fr.fin(), nil)
			return
		}
	}
}

// UDPListener binds a datagram socket and scans each peer's datagrams
// as one flow: every datagram is one in-order segment, sequence numbers
// advance by payload length, and flows end by engine idle eviction
// (datagrams have no FIN).
//
// Delivery accounting: UDP gives the daemon no loss signal by itself,
// so two optional mechanisms fill in. With Seq enabled ("udp:addr?seq")
// the sender prefixes every datagram with a 4-byte big-endian per-peer
// sequence number; the listener strips it, counts skipped-over numbers
// as gaps and late arrivals as reorders (a gap that later arrives is
// counted in both, keeping each counter monotonic — gaps minus reorders
// approximates true loss). Independently, on Linux the socket opts into
// SO_RXQ_OVFL and accounts datagrams the kernel shed before userspace
// saw them. Both feed /statsz and the per-source mfa_input_* series.
type UDPListener struct {
	Addr string
	// Seq enables the 4-byte sequence-header protocol described above.
	Seq bool

	id    uint32
	bound atomic.Value // net.Addr once bound (tests bind port 0)
}

// Bound returns the bound address, or nil before Run has bound it.
func (u *UDPListener) Bound() net.Addr {
	a, _ := u.bound.Load().(net.Addr)
	return a
}

// NewUDPListener returns a UDP socket source bound to addr.
func NewUDPListener(addr string) *UDPListener {
	return &UDPListener{Addr: addr, id: sourceIDs.Add(1)}
}

// Describe implements Source.
func (u *UDPListener) Describe() Description {
	detail := u.Addr
	if u.Seq {
		detail += "?seq"
	}
	return Description{Name: "udp:" + detail, Kind: "udp", Detail: detail, Finite: false}
}

// udpPeer is one remote address's flow state.
type udpPeer struct {
	fr   *framer
	tick uint64 // last-seen stamp for eviction
	// Seq-mode delivery tracking: next is the sequence number expected
	// from this peer; meaningful once haveSeq (the first datagram seeds
	// it, so a mid-stream join is not misread as a giant gap).
	next    uint32
	haveSeq bool
}

// Run implements Source.
func (u *UDPListener) Run(ctx context.Context, em *Emitter) error {
	pc, err := net.ListenPacket("udp", u.Addr)
	if err != nil {
		return fmt.Errorf("input: udp listen %s: %w", u.Addr, err)
	}
	u.bound.Store(pc.LocalAddr())
	stop := context.AfterFunc(ctx, func() { pc.Close() })
	defer stop()
	defer pc.Close()

	localPort := localPortOf(pc.LocalAddr())
	var oob []byte
	if enableKernelDropCount(pc) {
		oob = make([]byte, 64)
	}
	var lastKernelDrops uint32
	var haveBaseline bool
	peers := make(map[string]*udpPeer)
	var conns uint32
	var tick uint64
	buf := make([]byte, 64<<10) // max datagram, leased at the length received
	for {
		n, addr, kdrops, haveKD, err := readUDP(pc, buf, oob)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("input: udp read %s: %w", u.Addr, err)
		}
		if haveKD {
			// SO_RXQ_OVFL reports the socket's cumulative drop count;
			// credit the delta (wrap-safe uint32 subtraction). The first
			// observation seeds the baseline — drops before this Run
			// started belong to no one.
			if haveBaseline {
				if d := kdrops - lastKernelDrops; d != 0 {
					em.CountKernelDrops(int64(d))
				}
			}
			lastKernelDrops, haveBaseline = kdrops, true
		}
		tick++
		pk := addr.String()
		peer, ok := peers[pk]
		if !ok {
			if len(peers) >= maxUDPPeers {
				evictOldestPeers(peers, len(peers)/2)
			}
			conns++
			peer = &udpPeer{fr: newFramer(synthFlowKey(u.id, conns, addr, localPort))}
			peers[pk] = peer
			if em.Segment(peer.fr.syn(), nil) != nil {
				return nil
			}
		}
		peer.tick = tick
		payload := buf[:n]
		if u.Seq {
			if n < 4 {
				if err := em.Malformed(fmt.Errorf("input: udp %s: seq-mode datagram shorter than its 4-byte header (%d bytes)", u.Addr, n)); err != nil {
					return err
				}
				continue
			}
			seq := uint32(payload[0])<<24 | uint32(payload[1])<<16 | uint32(payload[2])<<8 | uint32(payload[3])
			payload = payload[4:]
			switch {
			case !peer.haveSeq:
				peer.haveSeq = true
				peer.next = seq + 1
			case seq == peer.next:
				peer.next++
			case seqAfter(seq, peer.next):
				em.CountGaps(int64(seq - peer.next))
				peer.next = seq + 1
			default:
				em.CountReorders(1)
			}
		}
		if len(payload) == 0 {
			continue
		}
		lease := em.Lease(len(payload))
		copy(lease.Data(), payload)
		if em.Segment(peer.fr.data(lease.Data()), lease) != nil {
			return nil
		}
	}
}

// seqAfter reports whether a is ahead of b in wrapping uint32 sequence
// space.
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// evictOldestPeers forgets the n least-recently-seen peers: one pass to
// collect last-seen stamps, a sort to find the age cutoff, one pass to
// delete. The single read loop owns the map, so no locking; eviction is
// rare (every maxUDPPeers/2 new peers at saturation).
func evictOldestPeers(peers map[string]*udpPeer, n int) {
	if n <= 0 {
		return
	}
	ticks := make([]uint64, 0, len(peers))
	for _, p := range peers {
		ticks = append(ticks, p.tick)
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	if n > len(ticks) {
		n = len(ticks)
	}
	cutoff := ticks[n-1]
	for k, p := range peers {
		if n > 0 && p.tick <= cutoff {
			delete(peers, k)
			n--
		}
	}
}

// errNotSupported marks platform-gated sources on the wrong platform.
var errNotSupported = errors.New("input: not supported on this platform")
