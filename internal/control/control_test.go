package control

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestMarshalRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: MsgSetRXBeam, Seq: 1, Value: 27000},
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
	if got := WireToCurrent(CurrentToWire(0.654321)); math.Abs(got-0.654321) > 1e-6 {
		t.Errorf("current round trip = %v", got)
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgSetRXBeam: "set-rx-beam", MsgSetTXBeam: "set-tx-beam",
		MsgSetBothBeams: "set-both-beams", MsgSetGainWord: "set-gain-word",
		MsgSetModulation: "set-modulation", MsgReadCurrent: "read-current",
		MsgAck: "ack", MsgNack: "nack",
	}
	for ty, want := range names {
		if ty.String() != want {
			t.Errorf("%d.String() = %q", ty, ty.String())
		}
	}
	if !strings.HasPrefix(MsgType(200).String(), "unknown") {
		t.Error("unknown type string")
	}
}

func echoHandler() Handler {
	return HandlerFunc(func(m Message) Message {
		return Message{Type: MsgAck, Value: m.Value}
	})
}

func TestLinkCall(t *testing.T) {
	l := NewLink(echoHandler(), 5*time.Millisecond, 0, 1)
	reply, err := l.Call(Message{Type: MsgSetRXBeam, Value: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgAck || reply.Value != 1234 {
		t.Errorf("reply = %+v", reply)
	}
	if l.Elapsed() != 5*time.Millisecond {
		t.Errorf("elapsed = %v", l.Elapsed())
	}
	ex, drops := l.Stats()
	if ex != 1 || drops != 0 {
		t.Errorf("stats = %d/%d", ex, drops)
	}
}

func TestLinkRetriesOnLoss(t *testing.T) {
	// 50% loss: with seeded rng the call should still eventually land,
	// and elapsed time should reflect the retries.
	l := NewLink(echoHandler(), 2*time.Millisecond, 0.5, 7)
	reply, err := l.Call(Message{Type: MsgReadCurrent})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgAck {
		t.Errorf("reply = %+v", reply)
	}
	ex, drops := l.Stats()
	if drops == 0 && ex == 1 {
		// Possible with 50% loss, but over several calls drops must
		// appear.
		for i := 0; i < 20; i++ {
			if _, err := l.Call(Message{Type: MsgReadCurrent}); err != nil {
				t.Fatal(err)
			}
		}
		_, drops = l.Stats()
		if drops == 0 {
			t.Error("expected some drops at 50% loss")
		}
	}
}

func TestLinkGivesUp(t *testing.T) {
	l := NewLink(echoHandler(), time.Millisecond, 1.0, 3) // always lose
	l.MaxRetries = 4
	if _, err := l.Call(Message{Type: MsgSetGainWord}); err == nil {
		t.Error("total loss should error out")
	}
	if _, drops := l.Stats(); drops != 5 {
		t.Errorf("drops = %d, want MaxRetries+1 = 5", drops)
	}
}

func TestLinkDefaultsAndReset(t *testing.T) {
	l := NewLink(echoHandler(), 0, 0, 1)
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
		m := Message{Type: MsgSetRXBeam, Seq: seq, Value: val}
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
