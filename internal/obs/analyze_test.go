package obs

import (
	"strings"
	"testing"
	"time"
)

func TestAnalyzeSummarizes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := Trace{Sessions: []SessionTrace{{
		ID:      "s0",
		Dropped: 2,
		Events: []Event{
			{T: 0, Kind: KindSessionStart},
			{T: 0, Kind: KindAirtime, A: 0, X: 0.2, Y: 0.25},
			{T: ms(11), Kind: KindFrameOK, A: 0, X: 0.004},
			// A three-frame miss burst...
			{T: ms(22), Kind: KindFrameMiss, A: 1, X: 0.5},
			{T: ms(33), Kind: KindFrameMiss, A: 2, X: 0},
			{T: ms(44), Kind: KindFrameMiss, A: 3, X: 0.1},
			{T: ms(50), Kind: KindSlotReclaim, A: 1},
			{T: ms(50), Kind: KindAirtime, A: 1, X: 0, Y: 0.25},
			{T: ms(55), Kind: KindFrameOK, A: 4, X: 0.003},
			// ...then a shorter one.
			{T: ms(66), Kind: KindFrameMiss, A: 5, X: 0},
			{T: ms(100), Kind: KindSlotReclaim, A: 2},
			{T: ms(150), Kind: KindSlotReclaim, A: 3},
			{T: ms(150), Kind: KindAirtime, A: 3, X: 0.1, Y: 0.25},
			{T: ms(250), Kind: KindSlotReclaim, A: 5}, // new episode
			{T: ms(160), Kind: KindHandoff, A: 0, B: 1, X: 20},
			{T: ms(170), Kind: KindLinkDown, X: -2},
			{T: ms(180), Kind: KindReassess, A: 1, X: 14, Y: 2e9},
			{T: ms(200), Kind: KindSessionEnd, A: 2, B: 6},
		},
	}}}

	a := Analyze(tr)
	if len(a.Sessions) != 1 {
		t.Fatalf("sessions = %d", len(a.Sessions))
	}
	s := a.Sessions[0]
	if s.Frames != 6 || s.Delivered != 2 {
		t.Errorf("frames/delivered = %d/%d, want 6/2", s.Frames, s.Delivered)
	}
	if s.Misses != 4 {
		t.Errorf("misses = %d, want 4", s.Misses)
	}
	if s.WorstMissBurst != 3 {
		t.Errorf("worst miss burst = %d, want 3", s.WorstMissBurst)
	}
	if s.WorstMissStart != ms(22) {
		t.Errorf("worst miss burst start = %v, want %v", s.WorstMissStart, ms(22))
	}
	if s.Handoffs != 1 || s.LinkDowns != 1 || s.Reassessions != 1 {
		t.Errorf("link counts = %d/%d/%d, want 1/1/1", s.Handoffs, s.LinkDowns, s.Reassessions)
	}
	if s.Windows != 3 {
		t.Errorf("windows = %d, want 3", s.Windows)
	}
	if s.BlockedWindows != 4 {
		t.Errorf("blocked windows = %d, want 4", s.BlockedWindows)
	}
	// Reclaimed windows 1,2,3 then 5: two episodes, longest run 3.
	if s.BlockedEpisodes != 2 {
		t.Errorf("blocked episodes = %d, want 2", s.BlockedEpisodes)
	}
	if s.LongestBlockedRun != 3 {
		t.Errorf("longest blocked run = %d, want 3", s.LongestBlockedRun)
	}
	if want := (0.2 + 0 + 0.1) / 3; !almost(s.MeanReceived, want) {
		t.Errorf("mean received = %v, want %v", s.MeanReceived, want)
	}
	if !almost(s.MeanEntitled, 0.25) {
		t.Errorf("mean entitled = %v, want 0.25", s.MeanEntitled)
	}
	if a.TotalDropped != 2 {
		t.Errorf("total dropped = %d, want 2", a.TotalDropped)
	}

	out := a.Render()
	for _, want := range []string{"s0", "worst miss burst", "handoffs", "airtime", "entitled"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func almost(got, want float64) bool {
	d := got - want
	return d < 1e-12 && d > -1e-12
}

// TestAnalyzeVenueEvents pins the venue additions end to end: the
// analyzer condenses per-window SINR penalties into episode statistics
// (zero-penalty windows break an episode without counting), admission
// bookkeeping is summed, and the rendering surfaces both.
func TestAnalyzeVenueEvents(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := Trace{Sessions: []SessionTrace{{
		ID: "venue/b0/h0",
		Events: []Event{
			{T: 0, Kind: KindSessionStart},
			{T: 0, Kind: KindAdmissionQueued, A: 2},
			{T: 0, Kind: KindAdmissionRejected, A: 1},
			// Windows 0-1 penalized, window 2 clean, windows 3-4 penalized:
			// two episodes over four interfered windows.
			{T: 0, Kind: KindBayInterference, A: 0, X: 0.5},
			{T: ms(50), Kind: KindBayInterference, A: 1, X: 1.5},
			{T: ms(100), Kind: KindBayInterference, A: 2, X: 0},
			{T: ms(150), Kind: KindBayInterference, A: 3, X: 1.0},
			{T: ms(200), Kind: KindBayInterference, A: 4, X: 1.0},
			{T: ms(250), Kind: KindSessionEnd, A: 3, B: 5},
		},
	}}}
	s := Analyze(tr).Sessions[0]
	if s.InterferedWindows != 4 {
		t.Errorf("interfered windows = %d, want 4", s.InterferedWindows)
	}
	if s.InterferenceEpisodes != 2 {
		t.Errorf("interference episodes = %d, want 2", s.InterferenceEpisodes)
	}
	if !almost(s.MeanPenaltyDB, 1.0) {
		t.Errorf("mean penalty = %v dB, want 1.0", s.MeanPenaltyDB)
	}
	if s.MaxPenaltyDB != 1.5 {
		t.Errorf("max penalty = %v dB, want 1.5", s.MaxPenaltyDB)
	}
	if s.AdmissionQueued != 2 || s.AdmissionRejected != 1 {
		t.Errorf("admission queued/rejected = %d/%d, want 2/1", s.AdmissionQueued, s.AdmissionRejected)
	}

	out := Analyze(tr).Render()
	for _, want := range []string{"interference", "episodes", "admission", "queued"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeFallsBackToCountingFrames(t *testing.T) {
	// Session-end marker lost to the ring: frames counted from events.
	tr := Trace{Sessions: []SessionTrace{{
		ID: "s0",
		Events: []Event{
			{T: 0, Kind: KindFrameOK, A: 0},
			{T: 1, Kind: KindFrameMiss, A: 1},
			{T: 2, Kind: KindFrameOK, A: 2},
		},
		Dropped: 10,
	}}}
	s := Analyze(tr).Sessions[0]
	if s.Frames != 3 || s.Delivered != 2 {
		t.Fatalf("frames/delivered = %d/%d, want 3/2", s.Frames, s.Delivered)
	}
}
