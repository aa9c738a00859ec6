package reflector

import (
	"math"
	"testing"

	"github.com/movr-sim/movr/internal/control"
	"github.com/movr-sim/movr/internal/geom"
)

func ctl() (*Controller, *Reflector) {
	dev := Default(geom.V(2.5, 5), 270)
	return NewController(dev), dev
}

func TestControllerBeamCommands(t *testing.T) {
	c, dev := ctl()
	reply := c.HandleControl(control.Message{
		Type: control.MsgSetBothBeams, Value: control.AngleToWire(250),
	})
	if reply.Type != control.MsgAck {
		t.Fatalf("reply = %+v", reply)
	}
	if got := control.WireToAngle(reply.Value); math.Abs(got-250) > 0.1 {
		t.Errorf("acked angle = %v", got)
	}
	if math.Abs(dev.RXBeamDeg()-250) > 0.1 || math.Abs(dev.TXBeamDeg()-250) > 0.1 {
		t.Errorf("beams = %v/%v, want both at 250", dev.RXBeamDeg(), dev.TXBeamDeg())
	}

	// Out-of-scan-range request: the ack reports the clamped angle.
	reply = c.HandleControl(control.Message{
		Type: control.MsgSetBothBeams, Value: control.AngleToWire(90), // opposite the mount
	})
	applied := control.WireToAngle(reply.Value)
	if math.Abs(applied-90) < 1 {
		t.Errorf("impossible angle should clamp, acked %v", applied)
	}
	if dev.RXBeamDeg() != dev.TXBeamDeg() {
		t.Error("both-beams command did not align beams")
	}
}

func TestControllerGainAndModulation(t *testing.T) {
	c, dev := ctl()
	reply := c.HandleControl(control.Message{Type: control.MsgSetGainWord, Value: 40})
	if reply.Type != control.MsgAck || reply.Value != 40 {
		t.Fatalf("gain reply = %+v", reply)
	}
	if dev.Amp().GainWord() != 40 {
		t.Errorf("gain word = %d", dev.Amp().GainWord())
	}
	// Oversized word: ack carries the clamped value.
	reply = c.HandleControl(control.Message{Type: control.MsgSetGainWord, Value: 100000})
	if int(reply.Value) != dev.Amp().Words()-1 {
		t.Errorf("clamped gain ack = %d", reply.Value)
	}

	for _, v := range []int32{100000, 0} {
		reply = c.HandleControl(control.Message{Type: control.MsgSetModulation, Value: v})
		if reply.Type != control.MsgAck || reply.Value != v {
			t.Errorf("modulation %d reply = %+v", v, reply)
		}
	}
}

func TestControllerUnknownCommand(t *testing.T) {
	c, _ := ctl()
	reply := c.HandleControl(control.Message{Type: control.MsgType(200)})
	if reply.Type != control.MsgNack {
		t.Errorf("unknown command should Nack, got %+v", reply)
	}
}

func TestAccessors(t *testing.T) {
	_, dev := ctl()
	if dev.HeightM() != 2.6 {
		t.Errorf("HeightM = %v", dev.HeightM())
	}
	if dev.NoiseFigureDB() != 5 {
		t.Errorf("NoiseFigureDB = %v", dev.NoiseFigureDB())
	}
}
