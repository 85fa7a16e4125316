//go:build !linux

// AF_PACKET stub for non-Linux platforms: the source exists (specs
// parse, telemetry registers) but fails permanently at start, so a
// config written for a Linux fleet degrades loudly, not mysteriously.
package input

import (
	"context"
	"fmt"
)

// AFPacket captures live traffic from one Linux network interface.
// On this platform it is a stub that fails permanently.
type AFPacket struct {
	Iface string
}

// NewAFPacket returns the stub source for iface.
func NewAFPacket(iface string) *AFPacket { return &AFPacket{Iface: iface} }

// Describe implements Source.
func (a *AFPacket) Describe() Description {
	return Description{Name: "afpacket:" + a.Iface, Kind: "afpacket", Detail: a.Iface, Finite: false}
}

// Run implements Source.
func (a *AFPacket) Run(ctx context.Context, em *Emitter) error {
	return Permanent(fmt.Errorf("input: afpacket %s: %w", a.Iface, errNotSupported))
}
