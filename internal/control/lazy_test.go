package control

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// eagerLink is Link as it was before its loss source was built lazily:
// NewLink seeded the source at construction. Frozen here as the
// reference for the lazy one.
type eagerLink struct {
	RTT        time.Duration
	LossProb   float64
	MaxRetries int

	handler Handler
	rng     *rand.Rand

	elapsed   time.Duration
	exchanges int
	drops     int
	seq       uint16
}

func newEagerLink(h Handler, rtt time.Duration, lossProb float64, seed int64) *eagerLink {
	if rtt <= 0 {
		rtt = DefaultRTT
	}
	return &eagerLink{
		RTT:        rtt,
		LossProb:   lossProb,
		MaxRetries: 8,
		handler:    h,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

func (l *eagerLink) Call(m Message) (Message, error) {
	for attempt := 0; attempt <= l.MaxRetries; attempt++ {
		l.seq++
		m.Seq = l.seq
		l.elapsed += l.RTT
		l.exchanges++
		if l.rng.Float64() < l.LossProb {
			l.drops++
			continue
		}
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

// TestLazyLinkMatchesEager runs the lazy Link and the frozen eager one
// side by side over seeds and loss probabilities: loss set at
// construction, raised after construction but before the first call,
// and raised mid-run after calls at zero loss. After every call the
// reply, the error, the per-call drop count, Stats and Elapsed must
// match, so the drop sequence is the same.
func TestLazyLinkMatchesEager(t *testing.T) {
	type plan struct {
		name              string
		initial, raised   float64
		raiseAfter, calls int
	}
	plans := []plan{
		{"set at construction", 0.3, 0.3, 0, 60},
		{"always lost", 1, 1, 0, 5},
		{"raised before the first call", 0, 0.5, 0, 60},
		{"raised mid-run", 0, 0.4, 25, 60},
		{"never lossy", 0, 0, 0, 40},
	}
	dropsSeen := 0
	for _, p := range plans {
		for seed := int64(-2); seed <= 12; seed++ {
			lazy := NewLink(echoHandler(), 3*time.Millisecond, p.initial, seed)
			eager := newEagerLink(echoHandler(), 3*time.Millisecond, p.initial, seed)
			for c := 0; c < p.calls; c++ {
				if c == p.raiseAfter {
					lazy.LossProb, eager.LossProb = p.raised, p.raised
				}
				msg := Message{Type: MsgSetGainWord, Value: int32(c)}
				_, dropsBefore := lazy.Stats()
				gotReply, gotErr := lazy.Call(msg)
				wantDropsBefore := eager.drops
				wantReply, wantErr := eager.Call(msg)
				ex, drops := lazy.Stats()
				label := fmt.Sprintf("%s seed %d call %d", p.name, seed, c)
				if gotReply != wantReply || (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: reply %+v/%v, eager %+v/%v", label, gotReply, gotErr, wantReply, wantErr)
				}
				if drops-dropsBefore != eager.drops-wantDropsBefore || ex != eager.exchanges || drops != eager.drops {
					t.Fatalf("%s: stats %d/%d, eager %d/%d", label, ex, drops, eager.exchanges, eager.drops)
				}
				if lazy.Elapsed() != eager.elapsed {
					t.Fatalf("%s: elapsed %v, eager %v", label, lazy.Elapsed(), eager.elapsed)
				}
				dropsSeen += drops - dropsBefore
			}
		}
	}
	if dropsSeen < 100 {
		t.Fatalf("only %d drops across every plan; test plans are wrong", dropsSeen)
	}
}
