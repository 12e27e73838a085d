//! Property-based tests: generated traffic is conformant and every engine
//! is exactly the per-UE reference, for arbitrary seeds and window
//! placements.

use cn_fit::{fit, FitConfig, Method, ModelSet};
use cn_gen::{
    generate, generate_out_of_core, generate_reference, GenConfig, OutOfCoreConfig, ShardedStream,
};
use cn_statemachine::replay_ue;
use cn_trace::{PopulationMix, Timestamp};
use cn_world::{generate_world, WorldConfig};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::OnceLock;

fn models(method: Method) -> &'static ModelSet {
    static OURS: OnceLock<ModelSet> = OnceLock::new();
    static BASE: OnceLock<ModelSet> = OnceLock::new();
    let build = |m: Method| {
        let world = generate_world(&WorldConfig::new(PopulationMix::new(35, 15, 10), 2.0, 91));
        fit(&world, &FitConfig::new(m))
    };
    match method {
        Method::Ours => OURS.get_or_init(|| build(Method::Ours)),
        _ => BASE.get_or_init(|| build(Method::Base)),
    }
}

fn arb_config() -> impl Strategy<Value = GenConfig> {
    (1u32..20, 0u32..8, 0u32..6, 0u8..24, 1u8..6, 0u64..10_000).prop_map(
        |(p, c, t, hour, hours, seed)| {
            GenConfig::new(
                PopulationMix::new(p, c, t),
                Timestamp::at_hour(0, hour),
                f64::from(hours),
                seed,
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two-level output replays with zero violations for any window/seed.
    #[test]
    fn ours_is_always_conformant(config in arb_config()) {
        let trace = generate(models(Method::Ours), &config);
        for (_, events) in trace.per_ue().iter() {
            let out = replay_ue(events);
            prop_assert!(out.is_conformant(), "{:?}", out.violations.first());
        }
    }

    /// The in-memory engine is the per-UE reference, event for event:
    /// `generate` (one shard per core) and the sharded stream at an
    /// arbitrary shard count, the inline one-shard path included.
    #[test]
    fn stream_matches_reference(config in arb_config(), shards in 1usize..6) {
        let set = models(Method::Ours);
        let reference = generate_reference(set, &config);
        prop_assert_eq!(&generate(set, &config), &reference);
        let streamed = ShardedStream::with_shards(set, &config, shards)
            .collect_trace()
            .expect("no fault injected");
        prop_assert_eq!(streamed, reference, "{} shards", shards);
    }

    /// Out-of-core export is byte-identical to the per-UE reference
    /// for arbitrary chunk sizes and spill budgets — including budgets
    /// small enough to spill every run and chunk sizes down to one UE.
    /// Spilling changes *where* bytes wait, never what is written.
    #[test]
    fn spilled_export_is_byte_identical_to_in_memory(
        config in arb_config(),
        chunk_ues in 1u32..40,
        // 0 forces every run to disk; small budgets spill a subset; the
        // cap keeps everything resident.
        budget in prop_oneof![Just(0usize), 1usize..32_768, Just(usize::MAX)],
    ) {
        let set = models(Method::Ours);
        let expect = cn_trace::io::to_binary(&generate_reference(set, &config));
        let occ = OutOfCoreConfig { chunk_ues, buffer_budget_bytes: budget, temp_dir: None };
        let (report, sink) =
            generate_out_of_core(set, &config, &occ, Cursor::new(Vec::new()))
                .expect("healthy sink and temp dir");
        prop_assert_eq!(sink.into_inner(), expect, "chunk {} budget {}", chunk_ues, budget);
        prop_assert_eq!(
            report.runs,
            (config.population.total() as usize).div_ceil(chunk_ues as usize)
        );
        if budget == usize::MAX {
            prop_assert_eq!(report.spilled_runs, 0);
        }
    }

    /// All events respect the window and the device layout, for both
    /// machine kinds.
    #[test]
    fn events_respect_window_and_layout(config in arb_config(), use_base in any::<bool>()) {
        let method = if use_base { Method::Base } else { Method::Ours };
        let trace = generate(models(method), &config);
        for r in trace.iter() {
            prop_assert!(r.t >= config.start && r.t < config.end());
            prop_assert_eq!(r.device, config.device_of(r.ue.get()));
        }
        // Per-UE strict time order.
        for (_, events) in trace.per_ue().iter() {
            prop_assert!(events.windows(2).all(|w| w[0].t < w[1].t));
        }
    }
}
