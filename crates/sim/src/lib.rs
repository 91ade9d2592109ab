//! # aurora-sim — deterministic discrete-event simulation substrate
//!
//! This crate is the substrate on which the Aurora reproduction runs. The
//! SIGMOD'17 paper evaluates Aurora on EC2 instances, EBS volumes and a
//! cross-AZ datacenter network; none of that hardware is available here, so
//! we replace it with a deterministic discrete-event simulator (DES) that
//! models the same three resources the paper reasons about:
//!
//! * **network** — per-link latency distributions, jitter, loss, and
//!   byte/packet accounting (the paper's PPS/bandwidth bottleneck),
//! * **disks** — an IOPS-capped service queue with a latency distribution
//!   (the paper's 30K-provisioned-IOPS EBS volumes),
//! * **CPU** — modeled by the engine crates on top via per-operation costs.
//!
//! Everything in the simulation is an [`Actor`] attached to a node placed in
//! an Availability Zone ([`Zone`]). Actors exchange dynamically-typed
//! messages ([`Msg`]) through the simulated network and schedule timers.
//! The simulator supports the failure modalities of §2 of the paper: node
//! crashes and restarts (volatile state lost, durable state kept), whole-AZ
//! outages, and pairwise network partitions.
//!
//! The simulation is fully deterministic for a given seed: a single
//! [`rand`]-based RNG drives every latency sample and every workload
//! decision, and simultaneous events are dispatched in FIFO order.

pub mod dist;
pub mod fault;
pub mod hash;
pub mod metrics;
pub mod msg;
pub mod net;
pub mod probe;
pub mod queue;
pub mod rng;
pub mod schedule;
pub mod sim;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use dist::Dist;
pub use fault::{BrownoutSpec, FaultAction, FaultPlan, FaultPlanError, PacketChaos};
pub use hash::{FxHashMap, FxHashSet};
pub use metrics::{Histogram, MetricsRegistry, Name};
pub use msg::{Msg, Payload};
pub use net::{LinkSpec, NetPolicy, NetStats};
pub use probe::{Probe, Relay};
pub use queue::{EventQueue, WheelItem};
pub use rng::SimRng;
pub use schedule::{generate, shrink, Intensity, ScheduleSpec};
pub use sim::{
    Actor, ActorEvent, Ctx, DiskSpec, NodeId, NodeOpts, Sim, SimHints, Tag, TimerId, Zone,
};
pub use telemetry::{
    SloBurn, SloKind, SloSpec, SloUnit, TelemetryConfig, TelemetryPoint, TelemetrySampler,
    TelemetryValue, TelemetryWindow,
};
pub use time::{SimDuration, SimTime};
pub use trace::{SpanId, TraceBuffer, TraceEvent, TracePhase};
