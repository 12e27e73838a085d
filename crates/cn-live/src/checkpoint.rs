//! Checkpoint/resume of generator progress.
//!
//! Every engine stream is a pure function of its spec and seed, so the
//! whole resumable state of a live serve is one number: the cumulative
//! **emitted-records watermark**. A checkpoint stores that watermark
//! together with the generation config, the optional scenario spec, and
//! the compression factor — enough to rebuild the identical source and
//! fast-forward past the already-served prefix. A server restarted from
//! a checkpoint therefore continues the byte stream exactly where the
//! previous incarnation stopped: concatenating the frames served before
//! the kill with the frames served after the resume reproduces the
//! batch trace byte for byte.
//!
//! Files are JSON, written atomically (temp file in the same directory,
//! then rename) so a crash mid-write leaves either the old checkpoint or
//! the new one, never a torn file. Periodic checkpoints lag the wire by
//! up to `checkpoint_every − 1` records; resuming from one replays that
//! suffix (at-least-once delivery across restarts). The final checkpoint
//! written on a graceful stop is exact (exactly-once).

use std::path::Path;

use cn_gen::{ConfigError, GenConfig};
use cn_scenario::ScenarioSpec;
use serde::{Deserialize, Serialize};

/// A point-in-time snapshot of serve progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Cumulative records emitted (the resume watermark).
    pub emitted: u64,
    /// Time-compression factor the stream was served at.
    pub compression: f64,
    /// The generation config the source was built from (carries the
    /// seed, so the resumed stream is the same pure function).
    pub config: GenConfig,
    /// The scenario overlaid on the baseline, if any.
    pub scenario: Option<ScenarioSpec>,
}

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (stage: `write`, `rename`, or `read`).
    Io {
        /// The operation that failed.
        stage: &'static str,
        /// The underlying error, stringified.
        message: String,
    },
    /// The file exists but does not parse as a checkpoint.
    Parse(String),
    /// The file parses, but its generation config is out of range.
    Config(ConfigError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { stage, message } => {
                write!(f, "checkpoint {stage} failed: {message}")
            }
            CheckpointError::Parse(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::Config(e) => write!(f, "checkpoint config out of range: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Atomically persist to `path` (temp file + rename).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let json = serde_json::to_string_pretty(self).map_err(|e| CheckpointError::Io {
            stage: "write",
            message: e.to_string(),
        })?;
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, json).map_err(|e| CheckpointError::Io {
            stage: "write",
            message: e.to_string(),
        })?;
        std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io {
            stage: "rename",
            message: e.to_string(),
        })
    }

    /// Load a checkpoint previously written by [`Checkpoint::save`]. Its
    /// config must pass [`GenConfig::validate`].
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let json = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            stage: "read",
            message: e.to_string(),
        })?;
        let ckpt: Checkpoint =
            serde_json::from_str(&json).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        ckpt.config.validate().map_err(CheckpointError::Config)?;
        Ok(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{PopulationMix, Timestamp};

    fn checkpoint(population: PopulationMix, duration_hours: f64) -> Checkpoint {
        Checkpoint {
            emitted: 123_456,
            compression: 3600.0,
            config: GenConfig::new(population, Timestamp::at_hour(0, 9), duration_hours, 42),
            scenario: None,
        }
    }

    /// Save `ckpt` under a per-test file name and load it back.
    fn round_trip(ckpt: &Checkpoint, name: &str) -> Result<Checkpoint, CheckpointError> {
        let path =
            std::env::temp_dir().join(format!("cn-live-ckpt-{name}-{}.json", std::process::id()));
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let ckpt = checkpoint(PopulationMix::new(10, 4, 2), 1.5);
        assert_eq!(round_trip(&ckpt, "test").unwrap(), ckpt);
    }

    #[test]
    fn a_window_past_the_key_range_is_a_typed_error() {
        // 305,421 h is past 2^40 ms; a pool built from it used to panic
        // with an index out of bounds once its keys wrapped.
        let got = round_trip(
            &checkpoint(PopulationMix::new(1, 0, 0), 305_421.0),
            "horizon",
        );
        assert!(
            matches!(
                got,
                Err(CheckpointError::Config(ConfigError::HorizonTooLong { max_ms, .. }))
                    if max_ms == (1 << 40) - 1
            ),
            "{got:?}"
        );
        // A window just inside the limit still loads.
        let ok = checkpoint(PopulationMix::new(1, 0, 0), 305_419.0);
        assert_eq!(round_trip(&ok, "horizon-ok").unwrap(), ok);
    }

    #[test]
    fn a_population_past_u32_is_a_typed_error() {
        let mix = PopulationMix::new(u32::MAX, 1, 0);
        let got = round_trip(&checkpoint(mix, 1.0), "population");
        assert_eq!(
            got,
            Err(CheckpointError::Config(ConfigError::PopulationOverflow(
                mix
            )))
        );
    }

    #[test]
    fn missing_and_malformed_files_are_typed_errors() {
        let dir = std::env::temp_dir();
        let missing = dir.join("cn-live-ckpt-does-not-exist.json");
        assert!(matches!(
            Checkpoint::load(&missing),
            Err(CheckpointError::Io { stage: "read", .. })
        ));
        let garbled = dir.join(format!("cn-live-ckpt-garbled-{}.json", std::process::id()));
        std::fs::write(&garbled, "{not json").unwrap();
        let got = Checkpoint::load(&garbled);
        std::fs::remove_file(&garbled).ok();
        assert!(matches!(got, Err(CheckpointError::Parse(_))));
    }
}
