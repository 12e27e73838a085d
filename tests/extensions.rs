//! Integration of the beyond-the-paper features: streaming synthesis,
//! message-level expansion, model inventory, and trace relabeling —
//! exercised together on one pipeline.

use cellular_cp_traffgen::gen::ShardedStream;
use cellular_cp_traffgen::mcn::{messages, nf_load};
use cellular_cp_traffgen::prelude::*;
use cellular_cp_traffgen::trace::{relabel, TraceSummary};

fn setup() -> (ModelSet, GenConfig) {
    let mix = PopulationMix::new(40, 18, 10);
    let world = generate_world(&WorldConfig::new(mix, 2.0, 123));
    let models = fit(&world, &FitConfig::new(Method::Ours));
    let config = GenConfig::new(mix.scaled(2.0), Timestamp::at_hour(0, 16), 2.0, 6);
    (models, config)
}

#[test]
fn streamed_population_drives_message_level_simulation() {
    let (models, config) = setup();
    // Stream (bounded memory), collect for verification.
    let trace = ShardedStream::new(&models, &config)
        .collect_trace()
        .expect("no worker failed");
    assert!(!trace.is_empty());

    // Expand into 3GPP signaling messages; the count must equal the sum of
    // the per-event flow lengths, and S1 must dominate.
    let expected: usize = trace
        .iter()
        .map(|r| messages::procedure(r.event).len())
        .sum();
    let expanded: Vec<_> = messages::expand(&trace).collect();
    assert_eq!(expanded.len(), expected);
    let per_interface = messages::interface_load(&trace);
    assert_eq!(per_interface.iter().sum::<u64>() as usize, expected);
    assert!(
        per_interface[0] > per_interface[1],
        "S1 must carry the most"
    );

    // The flow-derived transaction matrix agrees with the coarse one on NF
    // totals to within a small factor.
    let coarse = nf_load(
        &trace,
        &cellular_cp_traffgen::mcn::TransactionMatrix::default_epc(),
    );
    let fine = nf_load(&trace, &messages::derived_matrix());
    for nf in cellular_cp_traffgen::mcn::NetworkFunction::ALL {
        let (a, b) = (coarse.total(nf).max(1) as f64, fine.total(nf).max(1) as f64);
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 4.0, "{nf}: coarse {a} vs flow-derived {b}");
    }
}

#[test]
fn relabeled_synthesis_is_equivalent_for_the_mme() {
    let (models, config) = setup();
    let trace = generate(&models, &config);
    let (pseudonymized, map) = relabel::pseudonymize(&trace, 99);
    assert_eq!(map.len(), trace.ues().len());

    // The MME sees the same aggregate behavior under new identities.
    let before = Mme::new().run(&trace);
    let after = Mme::new().run(&pseudonymized);
    assert_eq!(before.processed, after.processed);
    assert_eq!(before.by_type, after.by_type);
    assert_eq!(before.protocol_errors, after.protocol_errors);
    assert_eq!(before.peak_connected, after.peak_connected);

    // Summaries agree except for identity-bound fields.
    let sa = TraceSummary::of(&trace);
    let sb = TraceSummary::of(&pseudonymized);
    assert_eq!(sa.events, sb.events);
    assert_eq!(sa.ues, sb.ues);
    assert_eq!(sa.by_event, sb.by_event);
}

#[test]
fn model_inventory_reflects_the_fit() {
    let (models, _) = setup();
    let inv = cellular_cp_traffgen::fit_crate::inspect::inventory(&models);
    assert_eq!(inv.method, "Ours");
    assert_eq!(inv.modeled_ues, [40, 18, 10]);
    assert!(inv.total_models >= 72);
    assert!(cellular_cp_traffgen::fit_crate::inspect::verify(&models).is_empty());
}

#[test]
fn compacted_models_still_generate_similar_traffic() {
    let (models, config) = setup();
    let compacted = cellular_cp_traffgen::fit_crate::compact_model_set(&models, 64);
    assert!(cellular_cp_traffgen::fit_crate::inspect::verify(&compacted).is_empty());
    let a = generate(&models, &config);
    let b = generate(&compacted, &config);
    let ratio = a.len().max(b.len()) as f64 / a.len().min(b.len()).max(1) as f64;
    assert!(ratio < 1.5, "{} vs {} events", a.len(), b.len());
    // And the snapshot is materially smaller.
    let full = models.to_json().unwrap().len();
    let small = compacted.to_json().unwrap().len();
    assert!(small < full, "{small} vs {full}");
}

#[test]
fn state_machine_dot_renders() {
    use cellular_cp_traffgen::statemachine::dot;
    let fig5 = dot::two_level_dot();
    let fig6 = dot::fiveg_sa_dot();
    assert!(fig5.contains("TAU_S_IDLE"));
    assert!(!fig6.contains("TAU"));
}
