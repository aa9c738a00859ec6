package movr

import (
	"github.com/movr-sim/movr/internal/align"
	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/baseline"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/control"
	"github.com/movr-sim/movr/internal/experiments"
	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/linkmgr"
	"github.com/movr-sim/movr/internal/phy"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/venue"
	"github.com/movr-sim/movr/internal/vr"
)

// Environment and radio types.
type (
	// Obstacle is a cylindrical blocker (hand, head, body, furniture).
	Obstacle = room.Obstacle

	// AP is the mmWave access point wired to the VR PC.
	AP = radio.AP

	// MultiAP is the multi-access-point baseline.
	MultiAP = baseline.MultiAP

	// World is the standard 5 m × 5 m office testbed.
	World = experiments.World

	// LatencyConfig parameterizes the §6 latency-budget analysis.
	LatencyConfig = experiments.LatencyConfig
)

// Construction helpers.
var (
	// V constructs a Vec.
	V = geom.V

	// NewWorld builds the standard experimental world (room + AP) with
	// the given reflection order (0 or 1), at the 24 GHz prototype
	// carrier.
	NewWorld = experiments.NewWorld

	// DefaultArray returns the paper-calibrated phased array facing a
	// world direction.
	DefaultArray = antenna.Default

	// DefaultBudget returns the calibrated 24 GHz link budget.
	DefaultBudget = channel.DefaultBudget

	// NewAP builds an access point.
	NewAP = radio.NewAP

	// DefaultReflector builds a paper-calibrated MoVR device at a
	// position and mount direction.
	DefaultReflector = reflector.Default

	// NewController wraps a reflector with its microcontroller.
	NewController = reflector.NewController

	// NewControlLink connects a simulated Bluetooth link to a device
	// handler.
	NewControlLink = control.NewLink

	// NewSweeper builds an alignment protocol runner.
	NewSweeper = align.NewSweeper

	// DefaultAlignConfig returns the calibrated protocol parameters.
	DefaultAlignConfig = align.DefaultConfig

	// NewLinkManager builds the end-to-end path selector.
	NewLinkManager = linkmgr.New

	// HTCVive returns the testbed headset's display spec.
	HTCVive = vr.HTCVive

	// HTCViveRequirement returns the testbed headset's link demand.
	HTCViveRequirement = phy.HTCViveRequirement

	// OptNLOS runs the exhaustive non-line-of-sight beam sweep
	// baseline.
	OptNLOS = baseline.OptNLOS

	// LinkSNR computes the data-plane SNR between two radios over all
	// traced paths at their current steering.
	LinkSNR = radio.LinkSNRdB

	// GbpsAtSNR converts an SNR to the achievable 802.11ad rate in
	// Gb/s.
	GbpsAtSNR = experiments.GbpsAt

	// Hand, Head and Body build the standard blockers.
	Hand = room.Hand
	Head = room.Head
	Body = room.Body
)

// Experiment runners: each reproduces one paper result deterministically.
var (
	// RunFig3 reproduces Fig 3 (blockage impact on SNR and rate).
	RunFig3 = experiments.Fig3

	// DefaultFig3Config returns the paper-scale Fig 3 parameters.
	DefaultFig3Config = experiments.DefaultFig3Config

	// RunFig7 reproduces Fig 7 (TX→RX leakage vs beam angles).
	RunFig7 = experiments.Fig7

	// DefaultFig7Config returns the paper's Fig 7 axes.
	DefaultFig7Config = experiments.DefaultFig7Config

	// RunFig8 reproduces Fig 8 (beam alignment accuracy).
	RunFig8 = experiments.Fig8

	// DefaultFig8Config returns the paper-scale Fig 8 parameters.
	DefaultFig8Config = experiments.DefaultFig8Config

	// RunFig9 reproduces Fig 9 (SNR improvement CDFs); ctx cancels it
	// between trials.
	RunFig9 = experiments.Fig9

	// DefaultFig9Config returns the paper-scale Fig 9 parameters.
	DefaultFig9Config = experiments.DefaultFig9Config

	// RunBattery reproduces the §6 battery-life analysis.
	RunBattery = experiments.Battery

	// DefaultBatteryConfig returns the paper's battery numbers.
	DefaultBatteryConfig = experiments.DefaultBatteryConfig

	// RunLatency reproduces the §6 latency-budget analysis.
	RunLatency = experiments.Latency

	// RunSession runs the end-to-end VR streaming comparison (the §6
	// future-work evaluation).
	RunSession = experiments.Session

	// DefaultSessionConfig returns a 30-second session.
	DefaultSessionConfig = experiments.DefaultSessionConfig

	// RunAblationGainBackoff, RunAblationPhaseBits,
	// RunAblationSweepStep and RunAblationTrackingPeriod quantify four
	// design choices: the §4.2 gain back-off, the phase-shifter
	// resolution, the alignment sweep's coarse step and the §6 tracking
	// cadence. Each runs its sweep on the given runner; nil means a
	// one-shot runner of GOMAXPROCS slots.
	RunAblationGainBackoff    = experiments.AblationGainBackoff
	RunAblationPhaseBits      = experiments.AblationPhaseBits
	RunAblationSweepStep      = experiments.AblationSweepStep
	RunAblationTrackingPeriod = experiments.AblationTrackingPeriod

	// RenderAblations and RenderTrackingAblation format ablation
	// results as text tables.
	RenderAblations        = experiments.RenderAblations
	RenderTrackingAblation = experiments.RenderTrackingAblation

	// RunDeployment compares multi-AP deployments against AP+reflector
	// deployments (§1's cost argument).
	RunDeployment = experiments.Deployment

	// RunHeatmap maps VR-grade coverage across the office grid; ctx
	// cancels it between cells.
	RunHeatmap = experiments.Heatmap

	// DefaultHeatmapConfig returns the standard coverage-map settings.
	DefaultHeatmapConfig = experiments.DefaultHeatmapConfig
)

// Fleet engine types: concurrent multi-session simulation across a
// bounded worker pool with deterministic aggregation.
type (
	// FleetSpec describes one independent VR session in a fleet.
	FleetSpec = fleet.Spec

	// FleetConfig tunes a fleet run (worker count).
	FleetConfig = fleet.Config

	// FleetResult is a completed fleet run: per-session outcomes in
	// spec order plus the aggregate statistics.
	FleetResult = fleet.Result

	// FleetScenarioConfig tunes the fleet scenario generators.
	FleetScenarioConfig = fleet.ScenarioConfig

	// FleetCollector folds session outcomes as they complete; exact
	// and streaming implementations plug into RunFleetCollect.
	FleetCollector = fleet.Collector

	// CoexPolicyName names a coex bay's airtime policy (rr|pf|edf).
	CoexPolicyName = coex.PolicyName

	// VenueAssignMode names a venue channel-assignment strategy
	// (color|fixed).
	VenueAssignMode = venue.AssignMode
)

// Fleet engine: multi-session simulation at scale.
var (
	// RunFleet simulates every spec across a bounded worker pool and
	// aggregates per-session reports into fleet statistics. The same
	// specs produce byte-identical results for any worker count.
	RunFleet = fleet.Run

	// RunFleetCollect runs a fleet through an explicit collector: pass
	// NewFleetStreamCollector's result for constant-memory streaming
	// aggregation, or nil for the exact path RunFleet uses.
	RunFleetCollect = fleet.RunCollect

	// NewFleetStreamCollector builds the streaming collector sized for
	// a spec set: its outage sketch spans the longest session.
	NewFleetStreamCollector = fleet.StreamCollectorFor

	// MixedFleet generates a deterministic multi-session deployment
	// that interleaves arcade bays, homes and cluttered rooms.
	MixedFleet = fleet.Mixed

	// VenueFleet generates a venue-scale deployment: a near-square grid
	// of adjacent coex bays sharing drywall partitions, with per-bay
	// channel assignment (FleetScenarioConfig.VenueChannels/VenueAssign),
	// cross-bay SINR interference read from neighboring bays' geometry
	// snapshots, and admission control on each bay's TDMA capacity
	// (VenueAdmission).
	VenueFleet = fleet.Venue

	// FleetScenarioNames renders the recognised scenario kinds
	// (mixed|arcade|home|dense|coex|coexpf|coexedf|venue) for usage
	// strings.
	FleetScenarioNames = fleet.KindNames

	// CoexPolicyNames renders the "rr|pf|edf" airtime-policy menu for
	// usage strings.
	CoexPolicyNames = coex.PolicyNames

	// VenueAssignModeNames renders the "color|fixed" channel-assignment
	// menu for usage strings.
	VenueAssignModeNames = venue.AssignModeNames
)
