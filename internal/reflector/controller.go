package reflector

import (
	"github.com/movr-sim/movr/internal/control"
)

// Controller is the reflector's on-board microcontroller (an Arduino Due
// in the prototype): it executes control-plane commands against the
// device hardware.
type Controller struct {
	Dev *Reflector
}

// NewController wraps a reflector device.
func NewController(dev *Reflector) *Controller {
	return &Controller{Dev: dev}
}

// HandleControl implements control.Handler: it applies one command to the
// device and returns an Ack carrying the applied operand, or a Nack for
// unknown commands.
func (c *Controller) HandleControl(m control.Message) control.Message {
	switch m.Type {
	case control.MsgSetBothBeams:
		applied := c.Dev.SetBothBeams(control.WireToAngle(m.Value))
		return control.Message{Type: control.MsgAck, Value: control.AngleToWire(applied)}
	case control.MsgSetGainWord:
		applied := c.Dev.Amp().SetGainWord(int(m.Value))
		return control.Message{Type: control.MsgAck, Value: int32(applied)}
	case control.MsgSetModulation:
		if m.Value > 0 {
			c.Dev.SetModulating(true, float64(m.Value))
		} else {
			c.Dev.SetModulating(false, 0)
		}
		return control.Message{Type: control.MsgAck, Value: m.Value}
	default:
		return control.Message{Type: control.MsgNack}
	}
}
