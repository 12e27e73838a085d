//! # cn-scenario — composable what-if scenarios over the steady state
//!
//! The fitted models in `cn-fit` reproduce the *steady state* of a
//! cellular control plane; operators, though, provision for the days the
//! steady state breaks: a stadium emptying into one tracking area, a
//! fiber cut dropping an eNodeB and the re-registration storm that
//! follows it, a firmware push making a million NB-IoT meters phone home
//! in the same minute. `cn-scenario` synthesizes those days by overlaying
//! deterministic, declaratively-specified perturbations on any of the
//! generation engines, so capacity experiments (`cn-mcn`) can be driven
//! far outside the fitted envelope without refitting anything.
//!
//! ## Model
//!
//! A [`ScenarioSpec`] is a seed plus a timeline of [`Phase`]s, each a
//! [`TimeWindow`] (relative to the generation epoch), a [`UeSubset`],
//! and a [`PhaseKind`]:
//!
//! * **Flash crowd** — a UE subset attaches in waves inside the window,
//!   each arrival followed by a burst of handovers (the stadium,
//!   the protest, the train station at rush hour).
//! * **Signaling storm** — paging storms (service request +
//!   connection-release pairs), RRC re-establishment floods, or TAU
//!   floods over a subset (the post-outage re-registration avalanche,
//!   [`StormKind`]).
//! * **Outage** — baseline records from the subset are suppressed inside
//!   the window; pair with a trailing storm phase to model
//!   recovery-after-dark.
//! * **Synchronized M2M reporting** — a device fleet emits TAU beacons
//!   on a shared period with zero jitter, the pathological firmware
//!   default the paper's M2M analysis warns about.
//!
//! Validation is strict and typed ([`SpecError`]): non-finite or negative
//! times, empty windows or subsets, zero intensities, and overlapping
//! phase windows are all rejected up front, never silently clamped.
//!
//! ## Determinism and confinement
//!
//! Every injected record is a pure function of `(spec.seed, phase index,
//! ue)` — nothing reads the baseline stream — so a scenario replays
//! byte-identically over the sharded stream (any shard count, and
//! [`apply_scenario`] on top of it), the out-of-core export, and the
//! per-UE reference. Each perturbation is confined to its declared
//! window and subset by construction; outside every window the baseline
//! passes through verbatim. The identity scenario (no phases) is
//! provably inert. `cn-verify` pins all three properties with golden
//! hashes and metamorphic proptest suites.
//!
//! ## Plumbing
//!
//! [`ScenarioStream`] wraps any [`RecordSource`] (sharded stream,
//! iterator, [`ComposedStream`] of time-zone-offset populations) and is itself drained via the same fallible
//! `try_next`/`finish` protocol, propagating [`cn_gen::StreamError`]
//! faults unchanged. [`write_scenario_binary`] exports to the binary
//! trace format under the finish-or-recover containment contract, and a
//! [`cn_obs::Registry`] surfaces the `cn_scenario_*` counter family.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
mod compose;
mod export;
mod inject;
mod spec;

pub use apply::{
    apply_scenario, IterSource, RecordSource, ScenarioError, ScenarioStats, ScenarioStream,
};
pub use compose::{ComposedStream, PopulationSlot};
pub use export::write_scenario_binary;
pub use inject::materialize_phase;
pub use spec::{Phase, PhaseKind, ScenarioSpec, SpecError, StormKind, TimeWindow, UeSubset};
