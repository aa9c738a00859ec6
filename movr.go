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
	"github.com/movr-sim/movr/internal/gainctl"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/linkmgr"
	"github.com/movr-sim/movr/internal/ofdm"
	"github.com/movr-sim/movr/internal/phy"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/stream"
	"github.com/movr-sim/movr/internal/venue"
	"github.com/movr-sim/movr/internal/vr"
)

// Version is the library version.
const Version = "1.0.0"

// Core geometry and environment types.
type (
	// Vec is a 2-D point in the floor plan (metres).
	Vec = geom.Vec

	// Room is the physical environment: walls, materials, obstacles.
	Room = room.Room

	// Obstacle is a cylindrical blocker (hand, head, body, furniture).
	Obstacle = room.Obstacle

	// Material is a wall surface with its mmWave reflection loss.
	Material = room.Material
)

// Radio-layer types.
type (
	// Array is a steerable uniform linear phased array.
	Array = antenna.Array

	// ArrayConfig configures an Array.
	ArrayConfig = antenna.Config

	// Budget is the link budget (TX power, bandwidth, noise figure).
	Budget = channel.Budget

	// Tracer is the mmWave ray tracer.
	Tracer = channel.Tracer

	// Path is one traced propagation path.
	Path = channel.Path

	// Radio is a generic positioned mmWave transceiver.
	Radio = radio.Radio

	// AP is the mmWave access point wired to the VR PC.
	AP = radio.AP

	// Headset is the mmWave receiver worn by the player.
	Headset = radio.Headset

	// MCS is one 802.11ad modulation-and-coding scheme.
	MCS = phy.MCS

	// VRRequirement is the headset's rate/latency demand.
	VRRequirement = phy.VRRequirement
)

// MoVR system types.
type (
	// Reflector is the MoVR device: two phased arrays and a
	// variable-gain amplifier, controllable over Bluetooth.
	Reflector = reflector.Reflector

	// ReflectorConfig configures a Reflector.
	ReflectorConfig = reflector.Config

	// Controller is the reflector's on-board microcontroller.
	Controller = reflector.Controller

	// ControlLink is the simulated Bluetooth control channel.
	ControlLink = control.Link

	// Sweeper runs the §4.1 backscatter beam-alignment protocol.
	Sweeper = align.Sweeper

	// AlignConfig configures the alignment protocol.
	AlignConfig = align.Config

	// AlignResult is an alignment outcome.
	AlignResult = align.Result

	// GainConfig tunes the §4.2 adaptive gain control.
	GainConfig = gainctl.Config

	// GainResult is a gain-control outcome.
	GainResult = gainctl.Result

	// LinkManager selects between the direct path and reflectors, and
	// tracks beams from VR pose.
	LinkManager = linkmgr.Manager

	// LinkState is the link manager's current decision.
	LinkState = linkmgr.LinkState

	// StaticWHDI is the frozen-beam wireless-HDMI baseline.
	StaticWHDI = baseline.StaticWHDI

	// MultiAP is the multi-access-point baseline.
	MultiAP = baseline.MultiAP
)

// VR-side types.
type (
	// DisplaySpec is a headset display pipeline.
	DisplaySpec = vr.DisplaySpec

	// Pose is one tracked player pose.
	Pose = vr.Pose

	// MotionTrace is a time-ordered pose sequence.
	MotionTrace = vr.Trace

	// StreamReport summarizes frame delivery over a session.
	StreamReport = stream.Report
)

// Experiment types: one per paper figure plus the §6 analyses.
type (
	// World is the standard 5 m × 5 m office testbed.
	World = experiments.World

	Fig3Config = experiments.Fig3Config
	Fig3Result = experiments.Fig3Result
	Fig7Config = experiments.Fig7Config
	Fig7Result = experiments.Fig7Result
	Fig8Config = experiments.Fig8Config
	Fig8Result = experiments.Fig8Result
	Fig9Config = experiments.Fig9Config
	Fig9Result = experiments.Fig9Result

	BatteryConfig = experiments.BatteryConfig
	BatteryResult = experiments.BatteryResult
	LatencyConfig = experiments.LatencyConfig
	LatencyResult = experiments.LatencyResult
	SessionConfig = experiments.SessionConfig
	SessionResult = experiments.SessionResult

	// ReflectorMount is one reflector installation point for a session.
	ReflectorMount = experiments.Mount

	// SessionVariantOutcome is a single variant's streaming report and
	// handoff count.
	SessionVariantOutcome = experiments.VariantOutcome
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

	// FleetAggregate is the fleet-level statistic set (delivered-rate
	// percentiles, blockage-outage time, reflector-handoff counts).
	FleetAggregate = fleet.Aggregate

	// FleetSessionOutcome is one session's result within a fleet.
	FleetSessionOutcome = fleet.SessionOutcome

	// FleetQuantiles summarizes one per-session metric across a fleet.
	FleetQuantiles = fleet.Quantiles

	// FleetScenarioConfig tunes the fleet scenario generators.
	FleetScenarioConfig = fleet.ScenarioConfig

	// FleetScenarioKind names a scenario generator
	// (mixed|arcade|home|dense|coex|coexpf|coexedf|venue) — the shared
	// vocabulary of the movrsim -scenario flag and the movrd job API.
	FleetScenarioKind = fleet.Kind

	// VenueAssignMode names a venue channel-assignment strategy
	// (color|fixed).
	VenueAssignMode = venue.AssignMode

	// FleetCollector folds session outcomes as they complete; exact
	// and streaming implementations plug into RunFleetCollect.
	FleetCollector = fleet.Collector

	// FleetStreamState is the constant-memory mergeable aggregation
	// state a streaming fleet run carries instead of per-session
	// outcomes.
	FleetStreamState = fleet.StreamState

	// FleetShard selects one contiguous session range of a fleet
	// (shard Index of Count); shard results merge deterministically
	// with MergeFleetShardResults.
	FleetShard = fleet.Shard
)

// Construction helpers.
var (
	// V constructs a Vec.
	V = geom.V

	// NewOffice5x5 builds the paper's 5 m × 5 m office testbed room.
	NewOffice5x5 = room.NewOffice5x5

	// NewWorld builds the standard experimental world (room + AP) with
	// the given reflection order, at the 24 GHz prototype carrier.
	NewWorld = experiments.NewWorld

	// NewWorldWithBudget builds the world with an explicit link budget
	// (e.g. Budget60GHz for the 802.11ad band).
	NewWorldWithBudget = experiments.NewWorldWithBudget

	// Budget60GHz returns the 60 GHz 802.11ad link budget.
	Budget60GHz = channel.Budget60GHz

	// DefaultArray returns the paper-calibrated phased array facing a
	// world direction.
	DefaultArray = antenna.Default

	// DefaultBudget returns the calibrated 24 GHz link budget.
	DefaultBudget = channel.DefaultBudget

	// NewTracer builds a ray tracer over a room.
	NewTracer = channel.NewTracer

	// NewAP builds an access point.
	NewAP = radio.NewAP

	// NewHeadset builds a headset radio.
	NewHeadset = radio.NewHeadset

	// NewReflector builds a MoVR device from a configuration.
	NewReflector = reflector.New

	// DefaultReflector builds a paper-calibrated MoVR device at a
	// position and mount direction.
	DefaultReflector = reflector.Default

	// DefaultReflectorConfig returns the calibrated device config.
	DefaultReflectorConfig = reflector.DefaultConfig

	// NewController wraps a reflector with its microcontroller.
	NewController = reflector.NewController

	// NewControlLink connects a simulated Bluetooth link to a device
	// handler.
	NewControlLink = control.NewLink

	// NewSweeper builds an alignment protocol runner.
	NewSweeper = align.NewSweeper

	// DefaultAlignConfig returns the calibrated protocol parameters.
	DefaultAlignConfig = align.DefaultConfig

	// OptimizeGain runs the §4.2 adaptive gain control on a device.
	OptimizeGain = gainctl.Optimize

	// DefaultGainConfig returns calibrated gain-control thresholds.
	DefaultGainConfig = gainctl.DefaultConfig

	// NewLinkManager builds the end-to-end path selector.
	NewLinkManager = linkmgr.New

	// HTCVive returns the testbed headset's display spec.
	HTCVive = vr.HTCVive

	// HTCViveRequirement returns the testbed headset's link demand.
	HTCViveRequirement = phy.HTCViveRequirement

	// GenerateMotion synthesizes a seeded player motion trace.
	GenerateMotion = vr.Generate

	// DefaultMotionConfig returns a lively room-scale session config.
	DefaultMotionConfig = vr.DefaultTraceConfig

	// OptNLOS runs the exhaustive non-line-of-sight beam sweep
	// baseline.
	OptNLOS = baseline.OptNLOS

	// OptNLOSBuf is OptNLOS with a caller-retained tracer scratch
	// buffer (Tracer.TraceHInto semantics) for allocation-free sweeps
	// over many placements.
	OptNLOSBuf = baseline.OptNLOSBuf

	// LinkSNR computes the data-plane SNR between two radios over all
	// traced paths at their current steering.
	LinkSNR = radio.LinkSNRdB

	// LinkSNRBuf is LinkSNR with a caller-retained tracer scratch
	// buffer; steady-state loops allocate nothing per read.
	LinkSNRBuf = radio.LinkSNRdBBuf

	// GbpsAtSNR converts an SNR to the achievable 802.11ad rate in
	// Gb/s.
	GbpsAtSNR = experiments.GbpsAt

	// Hand, Head, Body and Furniture build the standard blockers.
	Hand      = room.Hand
	Head      = room.Head
	Body      = room.Body
	Furniture = room.Furniture
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

	// RunFig9 reproduces Fig 9 (SNR improvement CDFs).
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

	// RunSessionVariant runs a single system variant of a session and
	// reports frame delivery plus path handoffs; configuration problems
	// are returned as errors (the fleet engine's entry point).
	RunSessionVariant = experiments.RunSessionVariant

	// DefaultSessionConfig returns a 30-second session.
	DefaultSessionConfig = experiments.DefaultSessionConfig

	// DefaultReflectorMounts returns the standard two-reflector install
	// for a room footprint.
	DefaultReflectorMounts = experiments.DefaultMounts

	// RunAblationGainBackoff, RunAblationPhaseBits,
	// RunAblationSweepStep and RunAblationTrackingPeriod quantify the
	// design choices called out in DESIGN.md.
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

	// RunHeatmap maps VR-grade coverage across the office grid.
	RunHeatmap = experiments.Heatmap

	// DefaultHeatmapConfig returns the standard coverage-map settings.
	DefaultHeatmapConfig = experiments.DefaultHeatmapConfig
)

// Fleet engine: multi-session simulation at scale.
var (
	// RunFleetCollect runs a fleet through an explicit collector: pass
	// NewFleetStreamCollector's result for constant-memory streaming
	// aggregation, or nil for the exact path RunFleet uses.
	RunFleetCollect = fleet.RunCollect

	// NewFleetStreamCollector builds the streaming collector sized for
	// a spec set; always size it from the full pre-shard set so shard
	// states stay mergeable.
	NewFleetStreamCollector = fleet.StreamCollectorFor

	// MergeFleetShardResults merges per-shard fleet results back into
	// the whole-fleet aggregate: exact-path merges reproduce the
	// unsharded run bit-identically, sketch merges are identical
	// across merge orders.
	MergeFleetShardResults = fleet.MergeShardResults

	// RunFleet simulates every spec across a bounded worker pool and
	// aggregates per-session reports into fleet statistics. The same
	// specs produce byte-identical results for any worker count.
	RunFleet = fleet.Run

	// ArcadeFleet, HomesFleet, DenseBlockerFleet and MixedFleet
	// generate deterministic multi-session deployments: many headsets
	// per room, one headset per room across many rooms, cluttered-room
	// stress, and an interleaved mix.
	ArcadeFleet       = fleet.Arcade
	HomesFleet        = fleet.Homes
	DenseBlockerFleet = fleet.DenseBlockers
	MixedFleet        = fleet.Mixed

	// ArcadeFleetN sizes four-player arcade bays for exactly n sessions.
	ArcadeFleetN = fleet.ArcadeN

	// CoexFleet generates shared-medium arcade bays: the room's one
	// 60 GHz channel is split across its players by a TDMA airtime
	// scheduler under a pluggable policy (round-robin by default, with
	// idle slots reclaimed; FleetScenarioConfig.CoexPolicy selects
	// proportional-fair or deadline-aware sizing, CoexUplink reserves
	// per-player pose-report sub-slots, CoexWeights skews airtime), and
	// every other player's body moves through the room as a dynamic
	// obstacle. CoexFleetN sizes bays for exactly n sessions. Both
	// return an error for a bay the knobs make impossible, such as an
	// uplink reservation that fills the scheduling window.
	CoexFleet  = fleet.Coex
	CoexFleetN = fleet.CoexN

	// VenueFleet generates a venue-scale deployment: a near-square grid
	// of adjacent coex bays sharing drywall partitions, with per-bay
	// channel assignment (FleetScenarioConfig.VenueChannels/VenueAssign),
	// cross-bay SINR interference read from neighboring bays' geometry
	// snapshots, and admission control on each bay's TDMA capacity
	// (VenueAdmission). VenueFleetN truncates the configured venue to n
	// sessions. A 1-bay venue reproduces the equivalent CoexFleet room
	// byte-identically.
	VenueFleet  = fleet.Venue
	VenueFleetN = fleet.VenueN

	// VenueFleetCapacity reports how many of a bay's configured players
	// the admission controller admits under the scenario's policy and
	// timing.
	VenueFleetCapacity = fleet.VenueCapacity

	// ParseFleetScenario validates a scenario name and returns its
	// FleetScenarioKind; kind.Specs(n, cfg) generates the deterministic
	// spec set and kind.Title() the report banner.
	ParseFleetScenario = fleet.ParseKind

	// FleetScenarioKinds lists the recognised scenario kinds in menu
	// order; FleetScenarioNames renders them for usage strings.
	FleetScenarioKinds = fleet.Kinds
	FleetScenarioNames = fleet.KindNames
)

// Coex and venue scenario vocabulary: the kinds, bounds and modes the
// fleet job resolver holds every front-end's knobs to.
const (
	// FleetScenarioCoex is the shared-medium arcade kind;
	// FleetScenarioCoexPF and FleetScenarioCoexEDF are the same bays
	// with the proportional-fair and deadline-aware airtime policies
	// forced on. The coex family is the only set of scenarios the
	// players-per-bay, policy and uplink knobs apply to.
	FleetScenarioCoex    = fleet.KindCoex
	FleetScenarioCoexPF  = fleet.KindCoexPF
	FleetScenarioCoexEDF = fleet.KindCoexEDF

	// FleetScenarioVenue is the venue-scale kind: a grid of coex bays
	// with cross-bay interference, channel assignment and admission
	// control. The bays/channels/assign/admission knobs apply to it
	// alone.
	FleetScenarioVenue = fleet.KindVenue

	// DefaultCoexHeadsets and MaxCoexHeadsets bound the players sharing
	// one coex bay's medium.
	DefaultCoexHeadsets = fleet.DefaultCoexHeadsets
	MaxCoexHeadsets     = fleet.MaxCoexHeadsets

	// DefaultVenueBays and MaxVenueBays bound the venue scenario's bay
	// grid; DefaultVenueChannels and MaxVenueChannels its channel
	// budget.
	DefaultVenueBays     = fleet.DefaultVenueBays
	MaxVenueBays         = fleet.MaxVenueBays
	DefaultVenueChannels = venue.DefaultChannels
	MaxVenueChannels     = venue.MaxChannels

	// VenueAssignColoring and VenueAssignFixed are the channel-
	// assignment strategies; VenueAdmissionQueue and
	// VenueAdmissionReject the admission behaviors for players beyond a
	// bay's capacity.
	VenueAssignColoring  = venue.AssignColoring
	VenueAssignFixed     = venue.AssignFixed
	VenueAdmissionQueue  = fleet.AdmissionQueue
	VenueAdmissionReject = fleet.AdmissionReject

	// CoexPolicyRR, CoexPolicyPF and CoexPolicyEDF name the pluggable
	// airtime policies a coex bay's TDMA scheduler can run: the
	// round-robin even split, proportional-fair sizing by recent
	// geometric link quality, and deadline-aware sizing quantized to
	// the display's frame-deadline grid.
	CoexPolicyRR  = coex.PolicyRR
	CoexPolicyPF  = coex.PolicyPF
	CoexPolicyEDF = coex.PolicyEDF
)

// Shared-medium coexistence types (internal/coex): the per-session
// airtime scheduler and its pluggable policy surface.
type (
	// CoexRoom describes one shared-medium room from a session's point
	// of view — the player traces, this session's slot, and the
	// scheduling knobs (policy, weights, uplink reservation).
	CoexRoom = coex.Room

	// CoexScheduler serves a session's airtime share over virtual time,
	// read from the room's schedule table.
	CoexScheduler = coex.Scheduler

	// CoexAirtimePolicy sizes the per-player sub-slots of every
	// scheduling window; CoexPolicyName names the built-in policies.
	CoexAirtimePolicy = coex.AirtimePolicy
	CoexPolicyName    = coex.PolicyName
)

// Airtime-policy and scenario-family helpers.
var (
	// BuildCoexGeometry builds a shared room's schedule table once, on
	// the session engine's world-tick grid out to the session duration;
	// set it as CoexRoom.Geometry on every session of the room.
	BuildCoexGeometry = experiments.BuildCoexGeometry

	// NewCoexScheduler builds one session's airtime scheduler over the
	// room's schedule table (CoexRoom.Geometry); it errors without one.
	NewCoexScheduler = coex.NewScheduler

	// ParseCoexPolicy validates an airtime-policy name ("" = rr);
	// CoexPolicies lists the policies and CoexPolicyNames renders the
	// "rr|pf|edf" menu for usage strings.
	ParseCoexPolicy = coex.ParsePolicy
	CoexPolicies    = coex.Policies
	CoexPolicyNames = coex.PolicyNames

	// IsCoexFleetScenario reports whether a scenario kind belongs to
	// the shared-medium family the coex knobs apply to (the venue kind
	// included — its bays are coex rooms).
	IsCoexFleetScenario = fleet.IsCoexKind

	// IsVenueFleetScenario reports whether a kind is the venue scenario
	// — the only one the bays/channels/assign/admission knobs apply to.
	IsVenueFleetScenario = fleet.IsVenueKind

	// ParseVenueAssignMode validates a channel-assignment mode name
	// ("" = coloring); VenueAssignModeNames renders the "color|fixed"
	// menu. ParseVenueAdmission validates an admission behavior
	// ("" = queue).
	ParseVenueAssignMode = venue.ParseAssignMode
	VenueAssignModeNames = venue.AssignModeNames
	ParseVenueAdmission  = fleet.ParseAdmission
)

// HeatmapConfig and HeatmapResult parameterize and report the coverage
// map.
type (
	HeatmapConfig = experiments.HeatmapConfig
	HeatmapResult = experiments.HeatmapResult
)

// Session variant labels for reading SessionResult.Reports.
const (
	VariantDirectOnly   = experiments.VariantDirectOnly
	VariantMoVRStatic   = experiments.VariantMoVRStatic
	VariantMoVRReactive = experiments.VariantMoVRReactive
	VariantMoVRTracking = experiments.VariantMoVRTracking
)

// MeasureOFDMSNR synthesizes 802.11ad OFDM symbols through a flat channel
// with AWGN at the given link SNR and returns the EVM-estimated SNR — the
// data-plane measurement the paper's headset performs (§5.2). It closes
// the loop between the analytic link budget and the signal path.
func MeasureOFDMSNR(snrDB float64, symbols int, seed int64) (float64, error) {
	m, err := ofdm.NewModem(ofdm.DefaultConfig())
	if err != nil {
		return 0, err
	}
	return m.MeasureAtSNR(snrDB, symbols, seed)
}
