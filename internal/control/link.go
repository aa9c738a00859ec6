package control

import (
	"fmt"
	"time"
)

// Handler is the device side of the control plane: it executes one
// command and returns the reply. The MoVR reflector controller implements
// this.
type Handler interface {
	HandleControl(Message) Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(Message) Message

// HandleControl calls f(m).
func (f HandlerFunc) HandleControl(m Message) Message { return f(m) }

// Link simulates the Bluetooth control channel: each request/reply
// round-trip costs latency. Time is accounted, not slept, so experiments
// can sum control-plane cost deterministically.
type Link struct {
	// RTT is the request/reply round-trip time.
	RTT time.Duration

	handler Handler
	elapsed time.Duration
	seq     uint16
}

// DefaultRTT models a BLE connection-interval round trip.
const DefaultRTT = 5 * time.Millisecond

// NewLink connects a simulated control link to the device handler.
func NewLink(h Handler, rtt time.Duration) *Link {
	if rtt <= 0 {
		rtt = DefaultRTT
	}
	return &Link{RTT: rtt, handler: h}
}

// Call sends a command over the link and returns the device's reply. The
// wire encode/decode path is exercised on every exchange so codec bugs
// cannot hide.
func (l *Link) Call(m Message) (Message, error) {
	l.seq++
	m.Seq = l.seq
	l.elapsed += l.RTT
	// Round-trip through the real codec.
	decoded, err := Unmarshal(m.Marshal())
	if err != nil {
		return Message{}, fmt.Errorf("control: encode round-trip: %w", err)
	}
	reply := l.handler.HandleControl(decoded)
	reply.Seq = decoded.Seq
	decodedReply, err := Unmarshal(reply.Marshal())
	if err != nil {
		return Message{}, fmt.Errorf("control: reply round-trip: %w", err)
	}
	return decodedReply, nil
}

// Elapsed returns the total simulated control-plane time spent so far.
func (l *Link) Elapsed() time.Duration { return l.elapsed }
