// Package movr is a full-system simulator and reference implementation of
// MoVR, the programmable mmWave reflector for untethered virtual reality
// from "Cutting the Cord in Virtual Reality" (Abari, Bharadia, Duffield,
// Katabi — HotNets-XV, 2016).
//
// # What this package provides
//
// MoVR replaces the multi-Gbps HDMI tether between a VR PC and headset
// with a 24 GHz mmWave link, and solves mmWave's blockage problem with a
// wall-mounted programmable reflector: two steerable phased arrays joined
// by a variable-gain amplifier, with no baseband of its own. This module
// implements the complete system in pure Go (standard library only):
//
//   - the physical substrate: phased arrays with quantized phase
//     shifters, a ray-traced indoor mmWave channel with knife-edge
//     blockage, the 802.11ad MCS tables, an OFDM modem, and a
//     saturating amplifier with a supply-current model;
//   - the paper's two core algorithms: backscatter beam alignment
//     (finding angles of incidence/reflection for a device that can
//     neither transmit nor receive, §4.1) and current-sensing adaptive
//     gain control (§4.2);
//   - the systems around them: a Bluetooth-style control plane, an
//     amplify-and-forward link budget, a path-selecting link manager
//     with pose-driven beam tracking, VR motion traces, a discrete-event
//     streaming simulator, and the paper's comparison baselines;
//   - reproductions of every figure in the paper's evaluation (Fig 3,
//     7, 8, 9) plus the §6 battery and latency analyses, exposed as
//     seeded, deterministic experiments;
//   - a fleet engine (RunFleet over the MixedFleet and VenueFleet
//     generators; movrsim -scenario and the job API select among all
//     eight scenario kinds) that simulates many concurrent VR sessions —
//     distinct rooms, seeds, reflector deployments and motion traces —
//     across a bounded worker pool and aggregates them into fleet-level
//     percentile statistics, byte-identical for any worker count. The
//     heavy experiment sweeps (coverage heatmap, Fig 9 trials, the
//     ablations) fan out through the same pool;
//   - a shared-medium coexistence model (internal/coex, the "coex"
//     scenario family): multi-headset arcade bays where one
//     60 GHz channel is split across the room's players by a TDMA
//     airtime scheduler at the tracking cadence — body-blocked players'
//     slots are reclaimed by the others — and every co-player walks its
//     own motion trace through the room as a dynamic obstacle. The
//     first workload where per-player delivered rate degrades as
//     players per room grow. Slot sizing is a pluggable airtime policy:
//     round-robin ("rr", the default), proportional-fair ("pf", shares
//     follow each player's recent geometric link quality), and
//     deadline-aware ("edf", slots quantized to the display's
//     frame-deadline grid), all weight-aware, with an optional
//     pose-report uplink reservation per player per window — see the
//     README's "Airtime policies" section for the policy menu and the
//     movrsim/movrd knobs;
//   - a simulation-as-a-service daemon (cmd/movrd over internal/server):
//     a job API with SSE progress streams, a scheduler that multiplexes
//     concurrent jobs onto one shared bounded session pool with 429
//     backpressure, a deterministic result cache keyed by a canonical
//     spec hash (repeat submissions return byte-identical JSON
//     instantly), and Prometheus metrics on /metrics. See the README's
//     "Serving simulations" section for the API walkthrough;
//   - a performance subsystem (internal/bench, `movrsim bench`): the
//     channel tracer and the link manager's tracking step run
//     allocation-free in steady state (TraceInto/TraceHInto reuse
//     caller-retained path buffers over per-wall transforms precomputed
//     at NewTracer time, golden-tested bit-identical to the original
//     tracer), temporal coherence caches tick-over-tick work (see
//     "Shared-room geometry" below), and a named benchmark suite writes
//     schema-versioned BENCH_<git-sha>.json reports that
//     scripts/bench_gate.sh compares against the committed
//     BENCH_baseline.json in CI, printing a per-entry delta table and
//     failing on regressions. See the README's "Performance workflow"
//     section.
//
// # Shared-room geometry
//
// In a shared bay the schedule and the peer poses conceptually belong
// to the room, not to any one session — every co-located session must
// derive the identical schedule. The simulator makes that ownership
// literal: coex.BuildGeometry precomputes the room's schedule table
// (every player's pose on the world-tick grid plus every player's slot
// boundaries for every scheduling window over the horizon), the fleet
// generator builds it once per room, and all of the room's sessions
// read it instead of re-evaluating the airtime policy N times per
// window. The table is the only schedule source: a session whose room
// carries none builds a private one, and pose queries answer only
// exact on-grid times. Every session runs as a bay — a session on its
// own is a bay of one — and golden tests pin whole fleet results byte
// for byte. One layer down, channel.PathCache applies the same
// temporal-coherence idea to ray tracing: each link leg caches last
// tick's path set and revalidates only the blockage legs that moved
// geometry could have changed, re-tracing in full when endpoints or
// walls change. See ARCHITECTURE.md for the layer map and the
// per-layer determinism guarantees.
//
// # Quick start
//
//	result := movr.RunFig9(movr.DefaultFig9Config())
//	fmt.Println(result.Render())
//
// or run the CLI:
//
//	go run ./cmd/movrsim all
//
// See DESIGN.md for the modelling decisions and EXPERIMENTS.md for
// paper-vs-measured comparisons.
package movr
