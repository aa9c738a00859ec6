// Package control implements the out-of-band control plane between the
// mmWave AP and MoVR reflectors: "MoVR has a bluetooth link with the AP
// to exchange control information. Our prototype uses an Arduino to run
// its control protocol" (§4).
//
// The wire format is a compact binary frame (little-endian, checksummed)
// so the protocol could run over a real BLE GATT characteristic
// unchanged. The simulated link accounts each round trip's latency.
package control

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MsgType enumerates control messages.
type MsgType uint8

const (
	// Reserved, so that every later command keeps its wire value.
	_ MsgType = iota + 1
	_

	// MsgSetBothBeams steers both beams to the same angle (Value in
	// centidegrees; alignment sweep state).
	MsgSetBothBeams

	// MsgSetGainWord programs the amplifier gain DAC.
	MsgSetGainWord

	// MsgSetModulation turns the OOK alignment modulation on (Value f2
	// in Hz) or off (0). The sweep synthesizes the modulated tone
	// itself, so the device acks it and keeps no state.
	MsgSetModulation

	// Reserved, so that MsgAck and MsgNack keep their wire values.
	_

	// MsgAck acknowledges a command; Value carries the applied operand.
	MsgAck

	// MsgNack reports a rejected command.
	MsgNack
)

// Message is one control frame.
type Message struct {
	// Type selects the operation.
	Type MsgType

	// Seq matches replies to requests.
	Seq uint16

	// Value carries the operand: beam angle in centidegrees, gain word,
	// or modulation frequency in Hz.
	Value int32
}

// frame layout: magic(1) type(1) seq(2) value(4) checksum(1) = 9 bytes.
const (
	frameMagic = 0xA5
	// FrameLen is the encoded size of a control frame in bytes.
	FrameLen = 9
)

// Marshal encodes the message into its 9-byte frame.
func (m Message) Marshal() []byte {
	b := make([]byte, FrameLen)
	b[0] = frameMagic
	b[1] = byte(m.Type)
	binary.LittleEndian.PutUint16(b[2:4], m.Seq)
	binary.LittleEndian.PutUint32(b[4:8], uint32(m.Value))
	b[8] = checksum(b[:8])
	return b
}

// Unmarshal decodes a frame, validating magic and checksum.
func Unmarshal(b []byte) (Message, error) {
	if len(b) != FrameLen {
		return Message{}, fmt.Errorf("control: frame length %d, want %d", len(b), FrameLen)
	}
	if b[0] != frameMagic {
		return Message{}, fmt.Errorf("control: bad magic 0x%02x", b[0])
	}
	if got, want := checksum(b[:8]), b[8]; got != want {
		return Message{}, fmt.Errorf("control: checksum 0x%02x, want 0x%02x", got, want)
	}
	return Message{
		Type:  MsgType(b[1]),
		Seq:   binary.LittleEndian.Uint16(b[2:4]),
		Value: int32(binary.LittleEndian.Uint32(b[4:8])),
	}, nil
}

// checksum is a simple XOR-fold with position salt, enough to catch the
// bit errors a noisy control link produces.
func checksum(b []byte) byte {
	var c byte
	for i, v := range b {
		c ^= v + byte(i)*31
	}
	return c
}

// AngleToWire converts a world angle in degrees to the wire encoding
// (centidegrees, wrapped to [0, 36000)).
func AngleToWire(deg float64) int32 {
	d := math.Mod(deg, 360)
	if d < 0 {
		d += 360
	}
	return int32(math.Round(d * 100))
}

// WireToAngle converts the wire encoding back to degrees.
func WireToAngle(v int32) float64 { return float64(v) / 100 }
