//! The four workloads: their sizes, the storm scenario, the DES sizing and
//! the live serving rate. Everything here is a pure function of the
//! workload name, the scale and the seed.

use cn_fit::{fit, FitConfig, Method, ModelSet};
use cn_gen::GenConfig;
use cn_mcn::{AdmissionPolicy, AutoscalePolicy, DesConfig, NetworkFunction, NfConfig};
use cn_scenario::{Phase, PhaseKind, ScenarioSpec, StormKind, TimeWindow, UeSubset};
use cn_stats::{Dist, LogNormal};
use cn_trace::{PopulationMix, Timestamp, Trace};
use cn_world::{generate_world, WorldConfig};

/// Seed the workload uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2023;

/// Records per encoded block: the unit the sinks hash, the unit of the
/// per-block delivery latency, and the granularity of the traced spans.
pub const BLOCK_RECORDS: usize = 4096;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Long horizon, modest population: per-UE sampling and encode bound.
    Steady,
    /// Huge population, short horizon: per-UE bootstrap and merge bound.
    Wide,
    /// The steady baseline through a storm scenario into the DES.
    StormDes,
    /// A materialised trace paced over loopback TCP to `nproc` consumers.
    LiveFanout,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 4] = [Kind::Steady, Kind::Wide, Kind::StormDes, Kind::LiveFanout];

    /// The name given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady-20k",
            Kind::Wide => "wide-1m",
            Kind::StormDes => "storm-des",
            Kind::LiveFanout => "live-fanout",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Full size, or the tiny size the smoke tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// A few hundred UEs over an hour or less: seconds, not minutes.
    Tiny,
}

impl Scale {
    /// Parse `full` or `tiny`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

/// A workload resolved to concrete inputs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Which size.
    pub scale: Scale,
    /// The workload seed (generation, scenario and DES streams).
    pub seed: u64,
    /// The synthesized population and window.
    pub gen: GenConfig,
    /// Shards of the generator and consumers of the live hub.
    pub parallelism: usize,
}

/// A population in the fixed 62.5/25/12.5 % phone/car/tablet mix.
fn mix(total: u32) -> PopulationMix {
    PopulationMix::new(total * 5 / 8, total / 4, total / 8)
}

impl Workload {
    /// Resolve `kind` at `scale` for `seed`.
    pub fn new(kind: Kind, scale: Scale, seed: u64) -> Workload {
        let (ues, hours) = match (kind, scale) {
            (Kind::Steady | Kind::StormDes, Scale::Full) => (20_000, 12.0),
            (Kind::Wide, Scale::Full) => (1_000_000, 0.25),
            (Kind::LiveFanout, Scale::Full) => (20_000, 4.0),
            (Kind::Wide, Scale::Tiny) => (2_000, 0.25),
            (_, Scale::Tiny) => (200, 1.0),
        };
        Workload {
            kind,
            scale,
            seed,
            gen: GenConfig::new(mix(ues), Timestamp::at_hour(0, 6), hours, seed),
            parallelism: cn_gen::effective_parallelism(),
        }
    }

    /// Horizon of the generated window, seconds.
    pub fn horizon_s(&self) -> f64 {
        self.gen.duration_hours * 3600.0
    }

    /// The storm scenario `storm-des` overlays: a flash crowd, an outage,
    /// then a paging storm and a TAU flood, each over a quarter to a half
    /// of the population. Windows are placed at fixed fractions of the
    /// horizon so the tiny scale keeps the same shape.
    pub fn storm_spec(&self) -> ScenarioSpec {
        let n = self.gen.population.total();
        let h = self.horizon_s();
        // Storm windows shrink with the horizon but never below one second.
        let short = (h / 360.0).max(1.0);
        let phase = |name: &str, at: f64, len: f64, kind: PhaseKind| Phase {
            name: name.to_string(),
            window: TimeWindow::new(at * h, len),
            kind,
        };
        ScenarioSpec {
            name: "perfbench-storm".to_string(),
            seed: self.seed,
            phases: vec![
                phase(
                    "stadium-crowd",
                    2.0 / 12.0,
                    short,
                    PhaseKind::FlashCrowd {
                        ues: UeSubset::new(0, n / 2),
                        waves: 2,
                        handovers_per_ue: 2,
                    },
                ),
                phase(
                    "cell-outage",
                    4.0 / 12.0,
                    7.5 * short,
                    PhaseKind::Outage {
                        ues: UeSubset::new(0, n / 4),
                    },
                ),
                phase(
                    "paging-storm",
                    7.0 / 12.0,
                    short,
                    PhaseKind::SignalingStorm {
                        ues: UeSubset::new(n / 4, 3 * n / 4),
                        kind: StormKind::Paging,
                        bursts_per_ue: 3,
                    },
                ),
                phase(
                    "tau-flood",
                    9.0 / 12.0,
                    short / 2.0,
                    PhaseKind::SignalingStorm {
                        ues: UeSubset::new(n / 2, 3 * n / 4),
                        kind: StormKind::TauFlood,
                        bursts_per_ue: 4,
                    },
                ),
            ],
        }
    }

    /// The DES `storm-des` drives: a one-server MME at 2 ms median,
    /// autoscaled to 8, behind a token bucket sized above the steady
    /// peak. Steady hours clear: at seed 2023 the steady MME queue peaks
    /// at 107 jobs, under the 256-per-server scale-up mark, and the bucket
    /// sheds nothing. The storms queue thousands deep, scale the pool up
    /// and shed. The other pools are [`DesConfig::default_epc`]'s.
    pub fn des_config(&self) -> DesConfig {
        let mut config = DesConfig::default_epc(self.seed);
        let mme = config
            .nfs
            .iter_mut()
            .find(|nf| nf.nf == NetworkFunction::Mme)
            .expect("default EPC has an MME pool");
        *mme = NfConfig {
            nf: NetworkFunction::Mme,
            servers: 1,
            service: Dist::LogNormal(LogNormal::from_median(2_000.0, 0.4).expect("valid law")),
            autoscale: Some(AutoscalePolicy {
                min_servers: 1,
                max_servers: 8,
                high_depth_per_server: 256.0,
                low_depth_per_server: 1.0,
                eval_every_ms: 1_000,
                provision_ms: 5_000,
            }),
        };
        config.with_admission(AdmissionPolicy {
            rate_per_sec: 400.0,
            burst: 800.0,
            high_reserve: 0.3,
            critical_reserve: 0.1,
        })
    }

    /// Trace-time over wall-time ratio `live-fanout` serves at: 7200×
    /// plays 4 h in 2 s (≈0.39M rec/s over two consumers), the fastest
    /// rate that served without a dropped frame in every trial on a
    /// 2-core box; 10080× dropped frames in one trial of four.
    pub fn compression(&self) -> f64 {
        match self.scale {
            Scale::Full => 7200.0,
            Scale::Tiny => 36_000.0,
        }
    }
}

/// The fitted model every workload generates from: a 195-UE two-day
/// world (the `BENCH_gen.json` training set, seed 77) fitted with the
/// paper's method. Fixed across workload seeds, so a seed changes the
/// synthesized population but never the model.
pub fn simulate_world(scale: Scale) -> Trace {
    let (population, days) = match scale {
        Scale::Full => (PopulationMix::new(120, 50, 25), 2.0),
        Scale::Tiny => (PopulationMix::new(24, 10, 6), 1.0),
    };
    generate_world(&WorldConfig::new(population, days, 77))
}

/// Fit the model set from a simulated world.
pub fn fit_models(world: &Trace) -> ModelSet {
    fit(world, &FitConfig::new(Method::Ours))
}
