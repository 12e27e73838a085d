//! Population-scale synthesis: K per-UE generators merged into one trace.

use crate::per_ue::generate_ue_with;
use crate::pool::MAX_HORIZON_MS;
use crate::shard::ShardedStream;
use cn_fit::ModelSet;
use cn_trace::{DeviceType, PopulationMix, Timestamp, Trace, UeId, MS_PER_HOUR};
use serde::{Deserialize, Serialize};

/// How the per-UE generator treats sojourns that cross hour boundaries —
/// a point §7 of the paper leaves open ("runs the per-hour state machine
/// one after another").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HourSemantics {
    /// Sample the sojourn from the model of the hour the state was
    /// *entered* and keep the absolute fire time (our default: no
    /// truncation artifacts; overnight idles survive intact).
    #[default]
    EntryHour,
    /// Discard fire times beyond the sampling hour and resample from the
    /// next hour's model at the boundary (a stricter reading of "one
    /// after another"; long sojourns become products of hourly survival).
    TruncateAtBoundary,
}

/// Why a [`GenConfig`] cannot be synthesized (see [`GenConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The synthesis window is longer than a [`crate::UePool`] key can
    /// address.
    HorizonTooLong {
        /// The requested window, `end − start`, in ms.
        horizon_ms: u64,
        /// The longest window accepted, in ms (2⁴⁰ − 1).
        max_ms: u64,
    },
    /// The device counts sum past `u32::MAX` UEs.
    PopulationOverflow(PopulationMix),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::HorizonTooLong { horizon_ms, max_ms } => write!(
                f,
                "synthesis window of {horizon_ms} ms exceeds the {max_ms} ms limit"
            ),
            ConfigError::PopulationOverflow(mix) => write!(
                f,
                "population of {} phones + {} connected cars + {} tablets exceeds {} UEs",
                mix.phones,
                mix.connected_cars,
                mix.tablets,
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenConfig {
    /// How many UEs of each device type to synthesize (design goal 3:
    /// arbitrary population sizes, independent of the modeled population).
    pub population: PopulationMix,
    /// Trace start (its hour-of-day is the paper's "starting hour H").
    pub start: Timestamp,
    /// Trace length in hours.
    pub duration_hours: f64,
    /// Master seed; every UE's stream is a pure function of `(seed, ue)`.
    pub seed: u64,
    /// Hour-boundary sojourn semantics (see [`HourSemantics`]).
    pub semantics: HourSemantics,
}

impl GenConfig {
    /// A synthesis run for `population` UEs over `duration_hours` starting
    /// at `start`.
    pub fn new(
        population: PopulationMix,
        start: Timestamp,
        duration_hours: f64,
        seed: u64,
    ) -> Self {
        debug_assert!(
            duration_hours.is_finite() && duration_hours >= 0.0,
            "GenConfig duration_hours must be finite and non-negative, got {duration_hours}"
        );
        // Saturate rather than propagate: a NaN/negative/infinite duration
        // means an empty synthesis window, never a garbage end timestamp.
        let duration_hours = if duration_hours.is_finite() {
            duration_hours.max(0.0)
        } else {
            0.0
        };
        GenConfig {
            population,
            start,
            duration_hours,
            seed,
            semantics: HourSemantics::EntryHour,
        }
    }

    /// Check the limits [`GenConfig::new`] cannot enforce on its own: the
    /// window must fit a pool's 40-bit key time (2⁴⁰ − 1 ms, ~305,419 h)
    /// and the device counts must sum within `u32`. Configs that arrive
    /// from outside the process (checkpoint JSON) pass through here, so
    /// they fail with a typed error rather than a panic deep in a pool.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mix = self.population;
        mix.phones
            .checked_add(mix.connected_cars)
            .and_then(|n| n.checked_add(mix.tablets))
            .ok_or(ConfigError::PopulationOverflow(mix))?;
        let horizon_ms = self.end().as_millis() - self.start.as_millis();
        if horizon_ms > MAX_HORIZON_MS {
            return Err(ConfigError::HorizonTooLong {
                horizon_ms,
                max_ms: MAX_HORIZON_MS,
            });
        }
        Ok(())
    }

    /// Device type of the synthesized UE at `index` (phones first, then
    /// connected cars, then tablets).
    pub fn device_of(&self, index: u32) -> DeviceType {
        if index < self.population.phones {
            DeviceType::Phone
        } else if index < self.population.phones + self.population.connected_cars {
            DeviceType::ConnectedCar
        } else {
            DeviceType::Tablet
        }
    }

    /// RNG seed of the synthesized UE at `index`: the master seed
    /// decorrelated per UE via SplitMix64. Every engine seeds UE `index`
    /// with this value, so its event stream does not depend on which shard,
    /// chunk or merge carries it.
    pub fn ue_seed(&self, index: u32) -> u64 {
        splitmix64(self.seed ^ splitmix64(u64::from(index) + 0x5F0F))
    }

    /// End of the synthesis window. `duration_hours` is a public field, so
    /// a non-finite or non-positive value can reach this point even though
    /// [`GenConfig::new`] saturates: such a duration yields an empty window
    /// (`end == start`), never a garbage timestamp (a bare `as u64` cast
    /// maps NaN to `0` but `+inf` to `u64::MAX`, which would send the
    /// generators off to synthesize forever).
    pub fn end(&self) -> Timestamp {
        let ms = self.duration_hours * MS_PER_HOUR as f64;
        if !ms.is_finite() || ms <= 0.0 {
            return self.start;
        }
        self.start.saturating_add(ms as u64)
    }
}

/// Shards to use when a caller asks for "all cores" ([`generate`],
/// [`ShardedStream::new`]): [`std::thread::available_parallelism`],
/// falling back to **1** when the parallelism cannot be determined
/// (restricted cgroups, exotic platforms).
///
/// The fallback is deliberately conservative. With an unknown core budget
/// the sequential path is always correct and never slower, whereas
/// speculatively spawning workers pays thread, channel, and merge tax for
/// potentially zero parallelism — exactly the regression the adaptive
/// sharded path exists to avoid. Shared by [`ShardedStream::new`] and the
/// benchmarks so every "all cores" choice resolves identically.
pub fn effective_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// SplitMix64 seed derivation (decorrelated per-UE seeds).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Synthesize a population trace from a fitted model set (§7).
///
/// A drain of [`ShardedStream::new`] (one shard per core, inline on a
/// single-core box) through [`ShardedStream::collect_trace`].
///
/// ```
/// use cn_fit::{fit, FitConfig, Method};
/// use cn_gen::{generate, GenConfig};
/// use cn_trace::{PopulationMix, Timestamp};
/// use cn_world::{generate_world, WorldConfig};
/// let world = generate_world(&WorldConfig::new(PopulationMix::new(15, 5, 3), 1.0, 7));
/// let models = fit(&world, &FitConfig::new(Method::Ours));
/// // A busy hour for a 4x population — sizes are decoupled (goal 3).
/// let config = GenConfig::new(PopulationMix::new(60, 20, 12), Timestamp::at_hour(0, 18), 1.0, 1);
/// let trace = generate(&models, &config);
/// assert!(trace.iter().all(|r| r.t >= config.start && r.t < config.end()));
/// ```
///
/// # Panics
///
/// With the typed [`crate::StreamError`] if a shard worker panics: a
/// short trace is never returned in place of a complete one. A shard holds
/// at most 2²⁴ UEs ([`crate::UePool`]); larger populations belong in
/// [`crate::generate_out_of_core`].
pub fn generate(models: &ModelSet, config: &GenConfig) -> Trace {
    ShardedStream::new(models, config)
        .collect_trace()
        .unwrap_or_else(|e| panic!("generation failed: {e}"))
}

/// The test oracle: every UE materialized on its own with
/// [`generate_ue_with`] and the per-UE traces merged with [`Trace::merge`].
///
/// Single-threaded, knob-free, and independent of the [`crate::UePool`]
/// radix heap that every production engine ([`generate`],
/// [`ShardedStream`], [`crate::generate_out_of_core`]) merges through, so
/// it can tell a merge bug from a generator bug. Tests and the golden gate
/// compare against it; production callers want [`generate`].
pub fn generate_reference(models: &ModelSet, config: &GenConfig) -> Trace {
    let end = config.end();
    Trace::merge(
        (0..config.population.total())
            .map(|index| {
                generate_ue_with(
                    models.device(config.device_of(index)),
                    models.method,
                    UeId(index),
                    config.start,
                    end,
                    config.ue_seed(index),
                    config.semantics,
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::check_well_formed;
    use cn_world::{generate_world, WorldConfig};

    fn fitted() -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(40, 20, 12), 2.0, 5));
        fit(&trace, &FitConfig::new(Method::Ours))
    }

    #[test]
    fn population_trace_is_well_formed() {
        let set = fitted();
        let config = GenConfig::new(
            PopulationMix::new(25, 10, 8),
            Timestamp::at_hour(0, 10),
            2.0,
            9,
        );
        let t = generate(&set, &config);
        assert!(!t.is_empty());
        assert!(check_well_formed(&t).is_empty());
        for r in t.iter() {
            assert_eq!(r.device, config.device_of(r.ue.get()));
            assert!(r.t >= config.start && r.t < config.end());
        }
    }

    #[test]
    fn generate_matches_the_reference() {
        let set = fitted();
        let config = GenConfig::new(
            PopulationMix::new(12, 5, 4),
            Timestamp::at_hour(0, 9),
            1.0,
            3,
        );
        let trace = generate(&set, &config);
        assert!(!trace.is_empty());
        assert_eq!(trace, generate_reference(&set, &config));
    }

    #[test]
    fn checkpoint_with_the_retired_threads_field_still_parses() {
        let config = GenConfig::new(
            PopulationMix::new(3, 2, 1),
            Timestamp::at_hour(0, 9),
            1.5,
            17,
        );
        let json = serde_json::to_string(&config).unwrap();
        let old = json.replacen("\"seed\"", "\"threads\":4,\"seed\"", 1);
        assert_ne!(old, json);
        let parsed: GenConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn scales_to_larger_population_than_modeled() {
        // Design goal 3: the modeled trace had 72 UEs; synthesize 400.
        let set = fitted();
        let config = GenConfig::new(
            PopulationMix::new(250, 100, 50),
            Timestamp::at_hour(0, 12),
            1.0,
            21,
        );
        let t = generate(&set, &config);
        let active = t.ues().len();
        assert!(active > 150, "only {active} of 400 UEs active");
    }

    #[test]
    fn empty_population_is_empty() {
        let set = fitted();
        let config = GenConfig::new(
            PopulationMix::new(0, 0, 0),
            Timestamp::at_hour(0, 0),
            1.0,
            1,
        );
        assert!(generate(&set, &config).is_empty());
        assert!(generate_reference(&set, &config).is_empty());
    }
}
