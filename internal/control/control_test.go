package control

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestMarshalRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: MsgSetBothBeams, Seq: 1, Value: 27000},
		{Type: MsgSetGainWord, Seq: 65535, Value: 100},
		{Type: MsgAck, Seq: 0, Value: -123456},
		{Type: MsgSetModulation, Seq: 42, Value: 100000},
	}
	for _, m := range msgs {
		got, err := Unmarshal(m.Marshal())
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got != m {
			t.Errorf("round trip: got %+v, want %+v", got, m)
		}
	}
}

// TestMsgTypeWireValues pins each command's byte on the wire: retired
// commands leave their values reserved, so no live one moves.
func TestMsgTypeWireValues(t *testing.T) {
	for _, c := range []struct {
		ty   MsgType
		want uint8
	}{
		{MsgSetBothBeams, 3},
		{MsgSetGainWord, 4},
		{MsgSetModulation, 5},
		{MsgAck, 7},
		{MsgNack, 8},
	} {
		if got := (Message{Type: c.ty}).Marshal()[1]; got != c.want {
			t.Errorf("type %d marshals as %d, want %d", c.ty, got, c.want)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil frame should fail")
	}
	if _, err := Unmarshal(make([]byte, 5)); err == nil {
		t.Error("short frame should fail")
	}
	b := (Message{Type: MsgAck}).Marshal()
	b[0] = 0x00
	if _, err := Unmarshal(b); err == nil {
		t.Error("bad magic should fail")
	}
	b = (Message{Type: MsgAck}).Marshal()
	b[4] ^= 0xFF // corrupt payload
	if _, err := Unmarshal(b); err == nil {
		t.Error("corrupted frame should fail checksum")
	}
}

func TestWireConversions(t *testing.T) {
	if AngleToWire(270) != 27000 {
		t.Errorf("AngleToWire(270) = %d", AngleToWire(270))
	}
	if AngleToWire(-90) != 27000 {
		t.Errorf("AngleToWire(-90) = %d, want wrapped 27000", AngleToWire(-90))
	}
	if got := WireToAngle(12345); math.Abs(got-123.45) > 1e-9 {
		t.Errorf("WireToAngle = %v", got)
	}
}

// echo is a device that acknowledges every command with its operand.
type echo struct{}

func (echo) HandleControl(m Message) Message { return Message{Type: MsgAck, Value: m.Value} }

func TestLinkCall(t *testing.T) {
	l := NewLink(echo{}, 5*time.Millisecond)
	reply, err := l.Call(Message{Type: MsgSetBothBeams, Value: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgAck || reply.Value != 1234 {
		t.Errorf("reply = %+v", reply)
	}
	if l.Elapsed() != 5*time.Millisecond {
		t.Errorf("elapsed = %v", l.Elapsed())
	}
}

func TestLinkDefaultsAndReset(t *testing.T) {
	l := NewLink(echo{}, 0)
	if l.RTT != DefaultRTT {
		t.Errorf("default RTT = %v", l.RTT)
	}
	if _, err := l.Call(Message{Type: MsgAck}); err != nil {
		t.Fatal(err)
	}
}

// Property: every message round-trips through the codec.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(ty uint8, seq uint16, val int32) bool {
		m := Message{Type: MsgType(ty), Seq: seq, Value: val}
		got, err := Unmarshal(m.Marshal())
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: single-byte corruption is always detected (magic, payload, or
// checksum).
func TestQuickCorruptionDetected(t *testing.T) {
	f := func(seq uint16, val int32, pos uint8, flip uint8) bool {
		if flip == 0 {
			return true // no corruption
		}
		m := Message{Type: MsgSetBothBeams, Seq: seq, Value: val}
		b := m.Marshal()
		i := int(pos) % len(b)
		b[i] ^= flip
		got, err := Unmarshal(b)
		// Either detected, or (only when the flip cancels out, which
		// XOR with non-zero flip cannot) unchanged.
		return err != nil || got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: wire angle encoding wraps into [0, 36000) and decodes within
// half a centidegree.
func TestQuickAngleWire(t *testing.T) {
	f := func(a float64) bool {
		deg := math.Mod(a, 1e4)
		if math.IsNaN(deg) {
			return true
		}
		w := AngleToWire(deg)
		if w < 0 || w > 36000 { // 36000 possible from rounding 359.999
			return false
		}
		back := WireToAngle(w)
		diff := math.Abs(math.Mod(back-deg, 360))
		if diff > 180 {
			diff = 360 - diff
		}
		return diff <= 0.005+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
