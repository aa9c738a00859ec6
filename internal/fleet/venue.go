package fleet

import (
	"fmt"
	"math/rand"

	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/experiments"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/venue"
)

// DefaultVenueBays is the bay count the venue scenario lays out when
// none is configured; MaxVenueBays bounds it so a venue job cannot
// outgrow the session budget (MaxVenueBays × MaxCoexHeadsets is still
// within movrd's per-job session cap).
const (
	DefaultVenueBays = 4
	MaxVenueBays     = 64
)

// Admission behaviors for players beyond a bay's capacity
// (ScenarioConfig.VenueAdmission and the movrd admission field).
const (
	AdmissionQueue  = "queue"
	AdmissionReject = "reject"
)

// ParseAdmission validates an admission-behavior name; empty means
// AdmissionQueue.
func ParseAdmission(s string) (string, error) {
	switch s {
	case "":
		return AdmissionQueue, nil
	case AdmissionQueue, AdmissionReject:
		return s, nil
	}
	return "", fmt.Errorf("unknown admission behavior %q (%s|%s)", s, AdmissionQueue, AdmissionReject)
}

// Venue generates a venue-scale deployment: `bays` contended coex bays
// (identical to Coex's 8 m × 8 m three-reflector rooms) laid out on a
// near-square grid with shared drywall partitions, so the bays' 60 GHz
// channels are no longer private. Per bay, on top of everything Coex
// models:
//
//   - channel assignment: each bay gets one of cfg.VenueChannels
//     channels under cfg.VenueAssign (greedy coloring by default; see
//     venue.AssignChannels);
//   - cross-bay interference: a bay with co-channel neighbors carries a
//     per-window SINR penalty computed from those neighbors' geometry
//     snapshots (venue.InterferenceTable) — folded into every session's
//     link budget via the coex scheduler's external-interference input;
//   - admission control: players beyond the bay's schedulable capacity
//     (coex.MaxAdmissible for the policy and window timing) are queued
//     or rejected per cfg.VenueAdmission. They never enter the world;
//     the bay's first session records the overflow on its event stream.
//
// A 1-bay venue has no neighbors, leaks nowhere, and generates
// byte-identical results to the equivalent Coex room — the guard that
// pins the venue layer to the single-room physics.
//
// bays and headsetsPerRoom go through the same rules as
// ScenarioConfig.VenueBays and HeadsetsPerRoom (0 means the default);
// out-of-range knobs are an error.
func Venue(bays, headsetsPerRoom int, cfg ScenarioConfig) ([]Spec, error) {
	cfg.VenueBays, cfg.HeadsetsPerRoom = bays, headsetsPerRoom
	cfg, err := cfg.resolve(KindVenue, goNames)
	if err != nil {
		return nil, fmt.Errorf("venue: %w", err)
	}
	bays, headsetsPerRoom = cfg.VenueBays, cfg.HeadsetsPerRoom
	cfg = cfg.withDefaults()

	// Admission: the TDMA window only fits so many players under the
	// configured policy and uplink reservation; the rest are held back
	// before any world is built, and a window that fits none is an
	// error before any trace is drawn.
	admitted := VenueCapacity(headsetsPerRoom, cfg)
	if admitted == 0 {
		return nil, fmt.Errorf("venue: admission capacity 0: a %v uplink reservation per player fills the %v window",
			cfg.CoexUplink, cfg.ReEvalPeriod)
	}
	overflow := headsetsPerRoom - admitted

	const w, d = 8, 8
	layout, err := venue.Grid(bays, w, d, room.Drywall)
	if err != nil {
		return nil, err
	}
	chans, err := venue.AssignChannels(layout, cfg.VenueChannels, cfg.VenueAssign)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	mounts := append(experiments.DefaultMounts(w, d),
		experiments.Mount{Pos: geom.V(w/2, 0), FacingDeg: 90})
	weights := cycleWeights(admitted, cfg.CoexWeights)

	// Phase 1: build every bay first — admitted players, traces and the
	// room-owned geometry snapshot — in the exact rng order Coex draws,
	// so a 1-bay venue is bit-identical to a 1-room coex run.
	bayData := make([]coexBay, bays)
	geos := make([]*coex.Geometry, bays)
	for b := 0; b < bays; b++ {
		if bayData[b], err = buildCoexBay(rng, admitted, w, d, weights, cfg); err != nil {
			return nil, err
		}
		geos[b] = bayData[b].geo
	}

	// Phase 2: with every bay's transmit schedule known, price the
	// cross-bay leakage. Interference-free bays (no co-channel neighbor,
	// or interference switched off) keep an empty table and with it the
	// exact historical rate path.
	params := venue.DefaultParams(experiments.APPos)
	ext := make([][]float64, bays)
	if !cfg.VenueInterferenceOff {
		for b := 0; b < bays; b++ {
			if layout.CoChannelNeighbors(chans, b) == 0 {
				continue
			}
			ext[b] = venue.InterferenceTable(layout, chans, b, geos, params)
		}
	}

	var specs []Spec
	for b := 0; b < bays; b++ {
		for h := 0; h < admitted; h++ {
			sess := cfg.session(bayData[b].seeds[h])
			sess.RoomW, sess.RoomD = w, d
			sess.Mounts = mounts
			sess.Coex = &coex.Room{
				Players:          bayData[b].traces,
				Self:             h,
				Period:           cfg.ReEvalPeriod,
				Policy:           cfg.CoexPolicy,
				Weights:          weights,
				UplinkSlot:       cfg.CoexUplink,
				Geometry:         geos[b],
				ExtSINRPenaltyDB: ext[b],
			}
			if h == 0 && overflow > 0 {
				// The bay's first session carries the admission
				// bookkeeping so venue traces show where capacity ran
				// out.
				if cfg.VenueAdmission == AdmissionReject {
					sess.AdmissionRejected = overflow
				} else {
					sess.AdmissionQueued = overflow
				}
			}
			specs = append(specs, Spec{
				ID:      fmt.Sprintf("venue/b%d/h%d", b, h),
				Session: sess,
			})
		}
	}
	return specs, nil
}

// VenueN generates the venue of cfg.VenueBays bays of
// cfg.HeadsetsPerRoom players (0 means the defaults) truncated to n
// sessions. A truncated bay's missing players still contend for
// airtime, block beams and leak into neighboring bays — they just are
// not simulated as sessions of their own.
func VenueN(n int, cfg ScenarioConfig) ([]Spec, error) {
	specs, err := Venue(cfg.VenueBays, cfg.HeadsetsPerRoom, cfg)
	if err != nil {
		return nil, err
	}
	if len(specs) > n {
		specs = specs[:n]
	}
	return specs, nil
}

// VenueCapacity reports how many of a bay's configured players the
// venue's admission controller will admit — the capacity movrd checks
// submissions against.
func VenueCapacity(headsetsPerRoom int, cfg ScenarioConfig) int {
	if headsetsPerRoom <= 0 {
		headsetsPerRoom = DefaultCoexHeadsets
	}
	cfg = cfg.withDefaults()
	admitted := coex.MaxAdmissible(cfg.CoexPolicy, headsetsPerRoom, cfg.ReEvalPeriod, 0, cfg.CoexUplink)
	if admitted > headsetsPerRoom {
		admitted = headsetsPerRoom
	}
	return admitted
}
