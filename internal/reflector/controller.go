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
// unknown commands. A modulation command is acked and changes nothing:
// the alignment sweep synthesizes the OOK signal it would switch on.
func (c *Controller) HandleControl(m control.Message) control.Message {
	switch m.Type {
	case control.MsgSetBothBeams:
		applied := c.Dev.SetBothBeams(control.WireToAngle(m.Value))
		return control.Message{Type: control.MsgAck, Value: control.AngleToWire(applied)}
	case control.MsgSetGainWord:
		applied := c.Dev.Amp().SetGainWord(int(m.Value))
		return control.Message{Type: control.MsgAck, Value: int32(applied)}
	case control.MsgSetModulation:
		return control.Message{Type: control.MsgAck, Value: m.Value}
	default:
		return control.Message{Type: control.MsgNack}
	}
}
