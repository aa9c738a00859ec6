package fleet

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/experiments"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/venue"
	"github.com/movr-sim/movr/internal/vr"
)

// ScenarioConfig tunes the generated sessions. Zero values give a 5 s
// session at the paper's 50 ms tracking cadence.
type ScenarioConfig struct {
	// Duration is the per-session play length.
	Duration time.Duration

	// ReEvalPeriod is the tracking cadence.
	ReEvalPeriod time.Duration

	// Seed drives everything: room sizes, player stations, blocker
	// placement, and every per-session motion seed. The same seed
	// always generates the same spec set.
	Seed int64

	// HeadsetsPerRoom sets how many players share each coex bay's
	// medium (coex-family scenarios only; 0 means 4).
	HeadsetsPerRoom int

	// CoexPolicy selects the airtime policy of every coex bay's TDMA
	// scheduler (coex-family scenarios only; empty means round-robin).
	// The coexpf and coexedf kinds force it to pf and edf respectively.
	CoexPolicy coex.PolicyName

	// CoexUplink reserves a pose-report uplink sub-slot of this length
	// per active player at the head of every scheduling window of a
	// coex bay, subtracted from the downlink airtime (0 = off).
	CoexUplink time.Duration

	// VenueBays sets how many adjacent bays the venue scenario lays out
	// on its grid (venue scenario only; 0 means DefaultVenueBays).
	VenueBays int

	// VenueChannels is the venue's channel budget for bay assignment
	// (venue scenario only; 0 means venue.DefaultChannels).
	VenueChannels int

	// VenueAssign selects the venue's channel-assignment strategy
	// (venue scenario only; empty means greedy coloring).
	VenueAssign venue.AssignMode

	// VenueInterferenceOff disables cross-bay interference, leaving the
	// venue a pure replication of independent coex bays — the knob the
	// bit-identity guard and A/B studies flip.
	VenueInterferenceOff bool

	// VenueAdmission selects what happens to players beyond a bay's
	// admission capacity (coex.MaxAdmissible): AdmissionQueue (the
	// default) holds them for a later slot, AdmissionReject turns them
	// away. Either way they never enter the world; the choice only
	// changes which admission event the bay's trace carries.
	VenueAdmission string
}

func (cfg ScenarioConfig) withDefaults() ScenarioConfig {
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.ReEvalPeriod <= 0 {
		cfg.ReEvalPeriod = 50 * time.Millisecond
	}
	return cfg
}

// session builds the common per-session config.
func (cfg ScenarioConfig) session(seed int64) experiments.SessionConfig {
	return experiments.SessionConfig{
		Duration:     cfg.Duration,
		Seed:         seed,
		ReEvalPeriod: cfg.ReEvalPeriod,
	}
}

// Kind names a scenario generator. It is the shared vocabulary of the
// movrsim CLI's -scenario flag and the movrd job API's fleet scenario
// field, so the two front-ends cannot drift apart.
type Kind string

// The recognised scenario kinds.
const (
	KindMixed  Kind = "mixed"
	KindArcade Kind = "arcade"
	KindHome   Kind = "home"
	KindDense  Kind = "dense"
	KindCoex   Kind = "coex"

	// KindCoexPF and KindCoexEDF are the coex scenario with the
	// proportional-fair and deadline-aware airtime policies forced on —
	// shorthand kinds so the policy family is one -scenario flag away
	// and gets its own bench suite entries.
	KindCoexPF  Kind = "coexpf"
	KindCoexEDF Kind = "coexedf"

	// KindVenue is the venue-scale scenario: a grid of adjacent coex
	// bays whose channels leak through the partition walls, with
	// per-bay channel assignment, cross-bay interference and admission
	// control (see Venue).
	KindVenue Kind = "venue"
)

// Kinds lists the recognised scenario kinds in menu order.
var Kinds = []Kind{KindMixed, KindArcade, KindHome, KindDense, KindCoex, KindCoexPF, KindCoexEDF, KindVenue}

// IsCoexKind reports whether the kind is a shared-medium scenario — the
// family the players-per-bay, airtime-policy and uplink knobs apply to.
// The venue kind is in the family: its bays are coex rooms.
func IsCoexKind(k Kind) bool {
	return k == KindCoex || k == KindCoexPF || k == KindCoexEDF || k == KindVenue
}

// IsVenueKind reports whether the kind is the venue scenario — the only
// kind the bays, channels, assignment and admission knobs apply to.
func IsVenueKind(k Kind) bool { return k == KindVenue }

// KindNames renders the menu for usage strings:
// "mixed|arcade|home|dense|coex|coexpf|coexedf|venue".
func KindNames() string {
	names := make([]string, len(Kinds))
	for i, k := range Kinds {
		names[i] = string(k)
	}
	return strings.Join(names, "|")
}

// ParseKind validates a scenario name.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds {
		if s == string(k) {
			return k, nil
		}
	}
	return "", fmt.Errorf("unknown scenario %q (%s)", s, KindNames())
}

// Specs generates the deterministic spec set for n sessions of kind k.
// An unknown kind is an error carrying the same menu ParseKind prints —
// it used to yield a silent nil, which front-ends could mistake for an
// empty scenario.
func (k Kind) Specs(n int, cfg ScenarioConfig) ([]Spec, error) {
	switch k {
	case KindMixed:
		return Mixed(n, cfg), nil
	case KindArcade:
		return ArcadeN(n, cfg), nil
	case KindHome:
		return Homes(n, cfg), nil
	case KindDense:
		return DenseBlockers(n, defaultDenseBlockers, cfg), nil
	case KindCoex:
		return CoexN(n, cfg)
	case KindCoexPF, KindCoexEDF:
		cfg.CoexPolicy = forcedPolicy[k]
		return CoexN(n, cfg)
	case KindVenue:
		return VenueN(n, cfg)
	}
	return nil, fmt.Errorf("unknown scenario %q (%s)", string(k), KindNames())
}

// Title is the human-readable report banner for the kind.
func (k Kind) Title() string {
	switch k {
	case KindMixed:
		return "Fleet — mixed deployments (arcade + homes + dense blockers)"
	case KindArcade:
		return "Fleet — VR arcade (8×8 m bays, 4 players each)"
	case KindHome:
		return "Fleet — homes (one headset per room)"
	case KindDense:
		return fmt.Sprintf("Fleet — dense-blocker stress (office + %d obstacles)", defaultDenseBlockers)
	case KindCoex:
		return "Fleet — VR arcade, shared medium (TDMA airtime + inter-player blockage)"
	case KindCoexPF:
		return "Fleet — VR arcade, shared medium (proportional-fair airtime + inter-player blockage)"
	case KindCoexEDF:
		return "Fleet — VR arcade, shared medium (deadline-aware airtime + inter-player blockage)"
	case KindVenue:
		return "Fleet — venue (bay grid, cross-bay interference + channel assignment + admission)"
	}
	return "Fleet"
}

// defaultDenseBlockers is the obstacle count Kind.Specs uses for the
// dense scenario — the historical movrsim default.
const defaultDenseBlockers = 6

// Arcade generates a VR-arcade deployment: `rooms` large 8 m × 8 m bays,
// each with three wall-mounted reflectors and `headsetsPerRoom` players.
// Every player is an independent session in the shared geometry, with
// the other players' bodies standing as blockers at their stations — the
// multi-user room VirtualNexus-style scenarios motivate.
func Arcade(rooms, headsetsPerRoom int, cfg ScenarioConfig) []Spec {
	if rooms <= 0 {
		rooms = 1
	}
	if headsetsPerRoom <= 0 {
		headsetsPerRoom = 4
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	const w, d = 8, 8
	// The standard install plus a third reflector on the south wall for
	// the bay's extra span.
	mounts := append(experiments.DefaultMounts(w, d),
		experiments.Mount{Pos: geom.V(w/2, 0), FacingDeg: 90})

	var specs []Spec
	for r := 0; r < rooms; r++ {
		stations := scatter(rng, headsetsPerRoom, 1.2, w-1.2, 1.2, d-1.2, 1.0)
		seeds := make([]int64, headsetsPerRoom)
		for h := range seeds {
			seeds[h] = rng.Int63()
		}
		for h := 0; h < headsetsPerRoom; h++ {
			sess := cfg.session(seeds[h])
			sess.RoomW, sess.RoomD = w, d
			sess.Mounts = mounts
			for j, st := range stations {
				if j != h {
					sess.Blockers = append(sess.Blockers, room.Body(st))
				}
			}
			specs = append(specs, Spec{
				ID:      fmt.Sprintf("arcade/r%d/h%d", r, h),
				Session: sess,
			})
		}
	}
	return specs
}

// ArcadeN generates four-player arcade bays sized for exactly n
// sessions: enough rooms to hold them, truncated to n.
func ArcadeN(n int, cfg ScenarioConfig) []Spec {
	const perRoom = 4
	specs := Arcade((n+perRoom-1)/perRoom, perRoom, cfg)
	if len(specs) > n {
		specs = specs[:n]
	}
	return specs
}

// Coex generates contended VR-arcade bays: the same 8 m × 8 m
// three-reflector rooms as Arcade, but the bay's one 60 GHz channel is
// genuinely shared. Each player transmits only during its TDMA slots of
// the tracking cadence, sized by cfg.CoexPolicy (round-robin by
// default; slots of body-blocked players are reclaimed by the others —
// coex.Scheduler), optionally behind a per-player pose-uplink
// reservation (cfg.CoexUplink), and every other player's body follows
// its own motion trace through the room as a dynamic obstacle instead
// of standing at a fixed station. This is the first workload where
// per-player delivered rate degrades as headsetsPerRoom grows. A knob
// the bay cannot honor (an uplink reservation that fills the window) is
// an error.
func Coex(rooms, headsetsPerRoom int, cfg ScenarioConfig) ([]Spec, error) {
	if rooms <= 0 {
		rooms = 1
	}
	if headsetsPerRoom <= 0 {
		headsetsPerRoom = DefaultCoexHeadsets
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	const w, d = 8, 8
	mounts := append(experiments.DefaultMounts(w, d),
		experiments.Mount{Pos: geom.V(w/2, 0), FacingDeg: 90})

	var specs []Spec
	for r := 0; r < rooms; r++ {
		bay, err := buildCoexBay(rng, headsetsPerRoom, w, d, cfg)
		if err != nil {
			return nil, err
		}
		for h := 0; h < headsetsPerRoom; h++ {
			sess := cfg.session(bay.seeds[h])
			sess.RoomW, sess.RoomD = w, d
			sess.Mounts = mounts
			sess.Coex = &coex.Room{
				Players:    bay.traces,
				Self:       h,
				Period:     cfg.ReEvalPeriod,
				Policy:     cfg.CoexPolicy,
				UplinkSlot: cfg.CoexUplink,
				Geometry:   bay.geo,
			}
			specs = append(specs, Spec{
				ID:      fmt.Sprintf("coex/r%d/h%d", r, h),
				Session: sess,
			})
		}
	}
	return specs, nil
}

// coexBay is one shared-medium bay's generated state: every player's
// motion seed and trace, and the room-owned geometry snapshot all of the
// bay's sessions share.
type coexBay struct {
	seeds  []int64
	traces []vr.Trace
	geo    *coex.Geometry
}

// buildCoexBay draws one bay's players and snapshot from rng. Both the
// coex and venue generators route every bay through this builder in bay
// order, so a venue consumes the rng stream exactly as the same number
// of coex rooms would — the venue↔coex bit-identity guard depends on it.
//
// Every player's trace is generated up front exactly the way the session
// will regenerate its own (same room, seed and duration), so each
// session's scheduler sees the identical room: peers from these traces,
// itself from its live session trace. The geometry snapshot — every
// player's pose grid and the full window schedule — is built once here
// and shared read-only by all of the bay's sessions, so each session
// reads the schedule instead of re-running the airtime policy per
// window. An invalid room — an uplink reservation that leaves no
// downlink airtime, say — is an error from the builders.
func buildCoexBay(rng *rand.Rand, headsets int, w, d float64, cfg ScenarioConfig) (coexBay, error) {
	seeds := make([]int64, headsets)
	for h := range seeds {
		seeds[h] = rng.Int63()
	}
	traces := make([]vr.Trace, headsets)
	for h, seed := range seeds {
		trCfg := vr.DefaultTraceConfig(w, d, seed)
		trCfg.Duration = cfg.Duration
		tr, err := vr.Generate(trCfg)
		if err != nil {
			return coexBay{}, err
		}
		traces[h] = tr
	}
	geo, err := experiments.BuildCoexGeometry(coex.Room{
		Players:    traces,
		Period:     cfg.ReEvalPeriod,
		Policy:     cfg.CoexPolicy,
		UplinkSlot: cfg.CoexUplink,
	}, cfg.Duration)
	if err != nil {
		return coexBay{}, err
	}
	return coexBay{seeds: seeds, traces: traces, geo: geo}, nil
}

// DefaultCoexHeadsets matches the arcade bay's four players; Job.Resolve
// defaults every coex-family job to it, so CLI runs and daemon jobs
// describe the same bay. MaxCoexHeadsets bounds the per-room count: each extra headset
// adds a dynamic obstacle to every co-located session's world, so cost
// grows quadratically with the room's population.
const (
	DefaultCoexHeadsets = 4
	MaxCoexHeadsets     = 8
)

// CoexN generates shared-medium arcade bays sized for exactly n
// sessions: cfg.HeadsetsPerRoom players per bay (default 4), enough
// rooms to hold them, truncated to n. A truncated bay's missing players
// still contend for airtime and block beams — they just are not
// simulated as sessions of their own.
func CoexN(n int, cfg ScenarioConfig) ([]Spec, error) {
	perRoom := cfg.HeadsetsPerRoom
	if perRoom <= 0 {
		perRoom = DefaultCoexHeadsets
	}
	specs, err := Coex((n+perRoom-1)/perRoom, perRoom, cfg)
	if len(specs) > n {
		specs = specs[:n]
	}
	return specs, err
}

// Homes generates a consumer deployment: n homes, each a differently
// sized bare room (3.5–6.5 m per side) with a single far-corner
// reflector and one headset — the paper §1's living-room install,
// multiplied across households.
func Homes(n int, cfg ScenarioConfig) []Spec {
	if n <= 0 {
		n = 8
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		w := 3.5 + rng.Float64()*3
		d := 3.5 + rng.Float64()*3
		sess := cfg.session(rng.Int63())
		sess.RoomW, sess.RoomD = w, d
		sess.Mounts = experiments.DefaultMounts(w, d)[:1] // far corner only
		specs = append(specs, Spec{
			ID:      fmt.Sprintf("home/%d", i),
			Session: sess,
		})
	}
	return specs
}

// DenseBlockers generates a stress deployment: n sessions in the paper's
// office with the standard two-reflector install, but with `blockers`
// extra standing obstacles — furniture and bystanders — cluttering the
// room. This probes how much scenery the reflector geometry can route
// around before coverage collapses.
func DenseBlockers(n, blockers int, cfg ScenarioConfig) []Spec {
	if n <= 0 {
		n = 8
	}
	if blockers <= 0 {
		blockers = 6
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		sess := cfg.session(rng.Int63())
		spots := scatter(rng, blockers, 0.8, 4.2, 0.8, 4.2, 0.6)
		for j, p := range spots {
			if j%2 == 0 {
				sess.Blockers = append(sess.Blockers, room.Furniture(p, 0.2+rng.Float64()*0.15))
			} else {
				sess.Blockers = append(sess.Blockers, room.Body(p))
			}
		}
		specs = append(specs, Spec{
			ID:      fmt.Sprintf("dense/%d", i),
			Session: sess,
		})
	}
	return specs
}

// Mixed interleaves the three deployment kinds into roughly n sessions —
// the default fleet workload of the movrsim CLI.
func Mixed(n int, cfg ScenarioConfig) []Spec {
	if n <= 0 {
		n = 12
	}
	cfg = cfg.withDefaults()
	third := n / 3
	rest := n - 2*third

	var specs []Spec
	if third > 0 {
		sub := cfg
		sub.Seed = cfg.Seed + 0x9E3779B9
		specs = append(specs, ArcadeN(third, sub)...)

		sub.Seed = cfg.Seed + 2*0x9E3779B9
		specs = append(specs, Homes(third, sub)...)
	}
	sub := cfg
	sub.Seed = cfg.Seed + 3*0x9E3779B9
	specs = append(specs, DenseBlockers(rest, 6, sub)...)
	return specs
}

// scatter draws n points in the rectangle [x0,x1]×[y0,y1], each at least
// minGap from the others and 1.5 m from the AP corner. The rejection
// budget is bounded so pathological inputs still terminate: a crowded
// rectangle relaxes the gap between points but never the AP keep-out
// (standing on the base station is not a VR pose).
func scatter(rng *rand.Rand, n int, x0, x1, y0, y1, minGap float64) []geom.Vec {
	pts := make([]geom.Vec, 0, n)
	for len(pts) < n {
		var p geom.Vec
		for attempt := 0; attempt < 4096; attempt++ {
			p = geom.V(x0+rng.Float64()*(x1-x0), y0+rng.Float64()*(y1-y0))
			if p.Dist(experiments.APPos) < 1.5 {
				continue // never give up the keep-out
			}
			if attempt >= 64 {
				break // crowded: give up on the inter-point gap
			}
			clear := true
			for _, q := range pts {
				if p.Dist(q) < minGap {
					clear = false
					break
				}
			}
			if clear {
				break
			}
		}
		pts = append(pts, p)
	}
	return pts
}
