//go:build linux

// AF_PACKET live capture: a raw packet socket bound to one interface,
// delivering whole Ethernet frames into the pipeline — the production
// front door. Requires CAP_NET_RAW (root); the expected failure mode on
// an unprivileged run is a permanent EPERM from the supervisor's
// restart policy, with the rest of the pipeline unaffected.
package input

import (
	"context"
	"errors"
	"fmt"
	"net"
	"syscall"
	"time"
)

// AFPacket captures live traffic from one Linux network interface.
type AFPacket struct {
	Iface string
}

// snapLen sizes the buffer a frame is received into before it is leased.
const snapLen = 64 << 10

// NewAFPacket returns a live-capture source on iface ("eth0").
func NewAFPacket(iface string) *AFPacket { return &AFPacket{Iface: iface} }

// Describe implements Source.
func (a *AFPacket) Describe() Description {
	return Description{Name: "afpacket:" + a.Iface, Kind: "afpacket", Detail: a.Iface, Finite: false}
}

// Run implements Source. The socket gets a short receive timeout so
// cancellation is observed within one beat even on a silent wire.
func (a *AFPacket) Run(ctx context.Context, em *Emitter) error {
	ifi, err := net.InterfaceByName(a.Iface)
	if err != nil {
		return Permanent(fmt.Errorf("input: afpacket: %w", err))
	}
	// ETH_P_ALL in network byte order, as packet(7) requires.
	const ethPAll = 0x0003
	proto := (ethPAll<<8)&0xff00 | ethPAll>>8
	fd, err := syscall.Socket(syscall.AF_PACKET, syscall.SOCK_RAW, proto)
	if err != nil {
		if errors.Is(err, syscall.EPERM) || errors.Is(err, syscall.EACCES) {
			return Permanent(fmt.Errorf("input: afpacket: socket: %w (CAP_NET_RAW required)", err))
		}
		return fmt.Errorf("input: afpacket: socket: %w", err)
	}
	defer syscall.Close(fd)
	if err := syscall.Bind(fd, &syscall.SockaddrLinklayer{Protocol: uint16(proto), Ifindex: ifi.Index}); err != nil {
		return fmt.Errorf("input: afpacket: bind %s: %w", a.Iface, err)
	}
	tv := syscall.NsecToTimeval(int64(200 * time.Millisecond))
	if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv); err != nil {
		return fmt.Errorf("input: afpacket: SO_RCVTIMEO: %w", err)
	}

	frame := make([]byte, snapLen)
	for {
		if ctx.Err() != nil {
			return nil
		}
		n, _, err := syscall.Recvfrom(fd, frame, 0)
		if err != nil {
			if errors.Is(err, syscall.EAGAIN) || errors.Is(err, syscall.EWOULDBLOCK) ||
				errors.Is(err, syscall.EINTR) {
				continue // receive timeout: poll cancellation and retry
			}
			return fmt.Errorf("input: afpacket: recvfrom %s: %w", a.Iface, err)
		}
		if n == 0 {
			continue
		}
		lease := em.Lease(n)
		copy(lease.Data(), frame)
		if err := em.Frame(lease.Data(), lease); err != nil {
			return err
		}
	}
}
