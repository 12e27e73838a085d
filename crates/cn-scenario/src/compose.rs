//! Multi-population composition with time-zone offsets.
//!
//! A nationwide core serves populations whose diurnal cycles are shifted
//! against each other: the same fitted model, synthesized per region,
//! each region's clock offset by its time zone. [`ComposedStream`] merges
//! any number of `(model set, config, offset)` slots into one globally
//! time-ordered stream, relabeling each slot's UEs onto a disjoint dense
//! range (slot order, cumulative population totals) so the composed
//! trace stays structurally well-formed.
//!
//! The offset shifts *emission timestamps only*: a slot's generator still
//! starts at its config's `start` (so its hour-of-day models see the
//! local clock), and the composed record's time is
//! `local t + offset`. Offsets are validated with the same typed-error
//! discipline as scenario windows (finite; negative offsets allowed,
//! clamping at the epoch rather than wrapping).
//!
//! ### Clamped prefixes and ordering
//!
//! A negative offset clamps every record at local `t ≤ |offset|` onto the
//! epoch (`t = 0`). Those records leave the baseline generator in
//! *pre-shift* `(t, ue, event)` order — distinct local instants collapse
//! onto one composed instant, so their relative order is no longer the
//! composed total order. Because the baseline stream is sorted, the
//! clamping records form exactly its leading prefix: the slot drains that
//! prefix up front, re-sorts it, and serves it before the live stream,
//! which from then on shifts strictly monotonically. Memory is bounded by
//! the number of clamped records (for pathological offsets that clamp an
//! entire slot, that is the slot's whole trace — the price of keeping
//! clamping semantics instead of rejecting such offsets).

use std::collections::VecDeque;

use cn_fit::ModelSet;
use cn_gen::{GenConfig, StreamError, UePool};
use cn_trace::{Timestamp, TraceRecord, UeId, MS_PER_HOUR};

use crate::apply::RecordSource;
use crate::spec::SpecError;

/// One regional population in a composition.
pub struct PopulationSlot<'m> {
    /// The region's fitted models.
    pub models: &'m ModelSet,
    /// The region's synthesis config (population, local start, seed).
    pub config: GenConfig,
    /// Time-zone offset in hours applied to emitted timestamps
    /// (finite; may be negative — shifted times clamp at 0).
    pub offset_hours: f64,
}

struct Slot<'m> {
    pool: UePool<'m>,
    /// Records a negative offset clamped onto `t = 0`, re-sorted into
    /// composed `(t, ue, event)` order; drained before the live stream
    /// (see the module docs on clamped prefixes).
    clamped: VecDeque<TraceRecord>,
    peek: Option<TraceRecord>,
    shift_ms: i64,
    ue_base: u32,
}

impl Slot<'_> {
    /// Apply the slot's time shift and UE relabeling to a baseline record.
    fn shift(&self, r: TraceRecord) -> TraceRecord {
        let t = if self.shift_ms >= 0 {
            r.t.saturating_add(self.shift_ms as u64)
        } else {
            Timestamp::from_millis(r.t.as_millis().saturating_sub(self.shift_ms.unsigned_abs()))
        };
        TraceRecord::new(t, UeId(self.ue_base + r.ue.get()), r.device, r.event)
    }

    /// Drain and re-sort the prefix a negative offset clamps onto `t = 0`.
    ///
    /// Records at local `t ≤ |shift|` all map to the epoch; everything
    /// after them maps to `t ≥ 1` and stays strictly ordered, so exactly
    /// this prefix needs buffering. The first unclamped record is pushed
    /// onto the back of the (all-`t = 0`) buffer, where it is trivially in
    /// order.
    fn buffer_clamped_prefix(&mut self) {
        if self.shift_ms >= 0 {
            return;
        }
        let cut = self.shift_ms.unsigned_abs();
        let mut prefix: Vec<TraceRecord> = Vec::new();
        let tail = loop {
            match self.pool.next_record() {
                Some(r) if r.t.as_millis() <= cut => prefix.push(self.shift(r)),
                other => break other,
            }
        };
        prefix.sort_unstable();
        self.clamped = prefix.into();
        if let Some(r) = tail {
            let shifted = self.shift(r);
            debug_assert!(self.clamped.back().is_none_or(|c| *c <= shifted));
            self.clamped.push_back(shifted);
        }
    }

    fn refill(&mut self) {
        self.peek = self
            .clamped
            .pop_front()
            .or_else(|| self.pool.next_record().map(|r| self.shift(r)));
    }
}

/// The ordered merge of several time-zone-shifted populations.
///
/// Implements [`RecordSource`], so a scenario can overlay a composed
/// baseline exactly like a single-population one.
pub struct ComposedStream<'m> {
    slots: Vec<Slot<'m>>,
    total_ues: u32,
}

impl<'m> ComposedStream<'m> {
    /// Build the composition. Slot `i`'s UEs are relabeled to start at
    /// the sum of earlier slots' population totals.
    ///
    /// Fails with [`SpecError::NonFinite`] (phase = slot index) when an
    /// offset is NaN or infinite, and with [`SpecError::UeRangeOverflow`]
    /// when the cumulative population total exceeds `u32::MAX` (an
    /// unchecked sum would silently alias UE ranges across slots) — the
    /// same reject-up-front discipline as scenario windows.
    pub fn new(slots: &[PopulationSlot<'m>]) -> Result<ComposedStream<'m>, SpecError> {
        let mut total = 0u32;
        for (i, slot) in slots.iter().enumerate() {
            if !slot.offset_hours.is_finite() {
                return Err(SpecError::NonFinite {
                    phase: i,
                    field: "offset_hours",
                    value: slot.offset_hours,
                });
            }
            total = total
                .checked_add(slot.config.population.total())
                .ok_or(SpecError::UeRangeOverflow { slot: i })?;
        }
        let mut ue_base = 0u32;
        let mut compiled = Vec::with_capacity(slots.len());
        for slot in slots {
            let mut s = Slot {
                pool: UePool::new(slot.models, &slot.config, 0..slot.config.population.total()),
                clamped: VecDeque::new(),
                peek: None,
                shift_ms: (slot.offset_hours * MS_PER_HOUR as f64).round() as i64,
                ue_base,
            };
            s.buffer_clamped_prefix();
            s.refill();
            compiled.push(s);
            ue_base += slot.config.population.total();
        }
        Ok(ComposedStream {
            slots: compiled,
            total_ues: ue_base,
        })
    }

    /// UEs across all slots (sum of per-slot population totals).
    pub fn total_ues(&self) -> u32 {
        self.total_ues
    }
}

impl Iterator for ComposedStream<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        // Linear min over the (few) slot peeks, full-record order so the
        // output is sorted by (t, ue, event).
        let best = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.peek.map(|r| (i, r)))
            .min_by_key(|&(_, r)| r)?
            .0;
        let rec = self.slots[best].peek;
        self.slots[best].refill();
        rec
    }
}

impl RecordSource for ComposedStream<'_> {
    fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        Ok(self.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::{check_well_formed, PopulationMix, Trace};
    use cn_world::{generate_world, WorldConfig};

    fn fitted() -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(16, 6, 4), 2.0, 3));
        fit(&trace, &FitConfig::new(Method::Ours))
    }

    fn config(seed: u64) -> GenConfig {
        GenConfig::new(
            PopulationMix::new(10, 4, 2),
            Timestamp::at_hour(0, 9),
            1.0,
            seed,
        )
    }

    #[test]
    fn composition_is_sorted_disjoint_and_complete() {
        let models = fitted();
        let slots = [
            PopulationSlot {
                models: &models,
                config: config(1),
                offset_hours: 0.0,
            },
            PopulationSlot {
                models: &models,
                config: config(2),
                offset_hours: 3.0,
            },
        ];
        let composed: Trace = ComposedStream::new(&slots).unwrap().collect();
        assert!(check_well_formed(&composed).is_empty());
        let a = cn_gen::generate(&models, &config(1));
        let b = cn_gen::generate(&models, &config(2));
        assert_eq!(composed.len(), a.len() + b.len());
        // Slot 0 keeps ids < 16; slot 1 is relabeled to 16..32 and
        // shifted +3h.
        let shift = 3 * MS_PER_HOUR;
        let slot1: Vec<_> = composed.iter().filter(|r| r.ue.get() >= 16).collect();
        assert_eq!(slot1.len(), b.len());
        for (got, want) in slot1.iter().zip(b.iter()) {
            assert_eq!(got.t.as_millis(), want.t.as_millis() + shift);
            assert_eq!(got.ue.get(), want.ue.get() + 16);
            assert_eq!(got.event, want.event);
        }
    }

    #[test]
    fn negative_offsets_clamp_instead_of_wrapping() {
        let models = fitted();
        let slots = [PopulationSlot {
            models: &models,
            config: config(3),
            offset_hours: -1_000_000.0,
        }];
        let composed: Trace = ComposedStream::new(&slots).unwrap().collect();
        assert!(composed.iter().all(|r| r.t.as_millis() == 0) || composed.is_empty());
    }

    #[test]
    fn clamped_prefix_is_reordered_not_emitted_in_preshift_order() {
        // Regression: records clamped onto t = 0 by a negative offset used
        // to keep their pre-shift emission order, so (0, ue_hi) could
        // precede (0, ue_lo) and break the (t, ue, event) total order. The
        // clamped prefix must be re-sorted and the stream must lose
        // nothing in the process.
        let models = fitted();
        let mk = |offset_hours| {
            [PopulationSlot {
                models: &models,
                config: config(3),
                offset_hours,
            }]
        };
        let unshifted: Trace = ComposedStream::new(&mk(0.0)).unwrap().collect();
        // The slot starts at absolute hour 9, so -9.5 h clamps the first
        // half of its 1 h window onto t = 0 and shifts the rest to
        // (0, 0.5 h] — plenty of records collapse onto the epoch while
        // the slot stays live.
        let composed: Vec<_> = ComposedStream::new(&mk(-9.5)).unwrap().collect();
        assert!(
            composed.windows(2).all(|w| w[0] <= w[1]),
            "composed stream emitted out of (t, ue, event) order"
        );
        assert_eq!(
            composed.len(),
            unshifted.len(),
            "clamping must not drop records"
        );
        let clamped = composed.iter().filter(|r| r.t.as_millis() == 0).count();
        assert!(
            clamped > 0,
            "offset -0.5 h clamped nothing — test is vacuous"
        );
        let t: Trace = composed.into_iter().collect();
        assert!(check_well_formed(&t).is_empty());
    }

    #[test]
    fn ue_range_overflow_is_a_typed_error() {
        // Two slots of 2^31 UEs each: the cumulative base overflows u32 on
        // the second slot. Validation must reject before any stream (or
        // its per-UE state) is built.
        let models = fitted();
        let big = |seed| {
            GenConfig::new(
                PopulationMix::new(1 << 31, 0, 0),
                Timestamp::at_hour(0, 9),
                1.0,
                seed,
            )
        };
        let slots = [
            PopulationSlot {
                models: &models,
                config: big(1),
                offset_hours: 0.0,
            },
            PopulationSlot {
                models: &models,
                config: big(2),
                offset_hours: 1.0,
            },
        ];
        assert_eq!(
            ComposedStream::new(&slots).map(|_| ()).unwrap_err(),
            SpecError::UeRangeOverflow { slot: 1 }
        );
    }

    #[test]
    fn non_finite_offset_is_a_typed_error() {
        let models = fitted();
        let slots = [PopulationSlot {
            models: &models,
            config: config(4),
            offset_hours: f64::NAN,
        }];
        assert!(matches!(
            ComposedStream::new(&slots),
            Err(SpecError::NonFinite {
                phase: 0,
                field: "offset_hours",
                ..
            })
        ));
    }

    #[test]
    fn empty_composition_is_empty() {
        assert_eq!(ComposedStream::new(&[]).unwrap().count(), 0);
    }
}
