package control

import (
	"fmt"
	"math/rand"
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
// round-trip costs latency, and frames are lost with a configurable
// probability. Time is accounted, not slept, so experiments can sum
// control-plane cost deterministically.
type Link struct {
	// RTT is the request/reply round-trip time.
	RTT time.Duration

	// LossProb is the per-round-trip probability of losing the exchange
	// (either direction).
	LossProb float64

	// MaxRetries bounds retransmissions before the call fails.
	MaxRetries int

	handler Handler
	seed    int64
	rng     *rand.Rand // seeded from seed on the first Call

	elapsed   time.Duration
	exchanges int
	drops     int
	seq       uint16
}

// DefaultRTT models a BLE connection-interval round trip.
const DefaultRTT = 5 * time.Millisecond

// NewLink connects a simulated control link to the device handler with a
// seeded loss process. The loss process's source is built on the first
// Call, its only reader, so a link that never carries a command never
// pays for seeding one.
func NewLink(h Handler, rtt time.Duration, lossProb float64, seed int64) *Link {
	if rtt <= 0 {
		rtt = DefaultRTT
	}
	return &Link{
		RTT:        rtt,
		LossProb:   lossProb,
		MaxRetries: 8,
		handler:    h,
		seed:       seed,
	}
}

// Call sends a command over the link, retrying on loss, and returns the
// device's reply. The wire encode/decode path is exercised on every
// exchange so codec bugs cannot hide.
func (l *Link) Call(m Message) (Message, error) {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.seed))
	}
	for attempt := 0; attempt <= l.MaxRetries; attempt++ {
		l.seq++
		m.Seq = l.seq
		l.elapsed += l.RTT
		l.exchanges++
		if l.rng.Float64() < l.LossProb {
			l.drops++
			continue
		}
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
	return Message{}, fmt.Errorf("control: %s lost after %d retries", m.Type, l.MaxRetries)
}

// Elapsed returns the total simulated control-plane time spent so far.
func (l *Link) Elapsed() time.Duration { return l.elapsed }

// Stats returns the exchange and drop counters.
func (l *Link) Stats() (exchanges, drops int) { return l.exchanges, l.drops }
