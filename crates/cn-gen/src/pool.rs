//! Struct-of-arrays UE pool: the compact merge hot path.
//!
//! The sequential population stream originally merged its per-UE
//! generators through a `LoserTree<TraceRecord>` — a
//! `Vec<Option<TraceRecord>>` of fat heads compared through the full
//! record `Ord` on every tournament replay. Profiling the 20K-UE × 12h
//! benchmark workload showed that merge layer costing ~3–4× the pure
//! generation work, and the cost is *structural*: every emitted event
//! replays ⌈log₂k⌉ matches whose memory accesses form a serial
//! dependency chain — ~15 dependent cache reads per record at 20K UEs,
//! whatever the node encoding.
//!
//! [`UePool`] therefore splits the state into parallel arrays
//! (struct-of-arrays) and replaces the tournament with a **radix heap**
//! over packed keys:
//!
//! * `recs: Vec<TraceRecord>` — one arena of generated-but-unemitted
//!   records, a short block per UE slot, read exactly once per emission;
//! * `iters: Vec<UeEventIter>` — the per-UE generator state, touched
//!   only when the winning UE must be advanced;
//! * [`RadixHeap`] — one packed `u64` key (`t_rel_ms << 24 | slot`) per
//!   live UE, filed under one of 65 buckets by the highest bit in which
//!   it differs from the last minimum. Keys are unique and every insert
//!   is at least the current minimum (a UE's next event follows the one
//!   just emitted), which is all a radix heap needs. Emitting a record
//!   costs a bit-scan, a pop and a push on dense memory, and each key is
//!   moved to a lower bucket at most 64 times over its life — instead of
//!   ⌈log₂k⌉ dependent misses per record.
//!
//! The key order embeds the record order exactly: per-UE timestamps
//! strictly increase, every UE lives in exactly one slot, and slots are
//! assigned in ascending UE order, so `(t_rel, slot)` sorts identically
//! to the global `(t, ue)` record order (event type never breaks a tie —
//! `(t, ue)` is already unique). The pool's output is byte-identical to
//! the fat-tree merge; the `cn-verify` golden gate holds at pin parity.
//!
//! # Memory
//!
//! Wide populations are dominated by UEs that send a handful of events:
//! on a 1M-UE × 15 min run (~1.2 events per UE) priming alone runs almost
//! every generator to exhaustion. A slot therefore keeps only what it
//! still needs once priming is over:
//!
//! * a UE whose generator ran dry before filling its `LOOKAHEAD` block
//!   drops the generator on the spot and keeps exactly its `k` primed
//!   records in the arena;
//! * a UE that filled the block keeps its 280-B generator and a full
//!   `LOOKAHEAD` block (128 B) to refill in place.
//!
//! Per slot that is 10 B of indices (`iter_of`, `off`, `pos`, `fill`) plus
//! 16 B per primed record, and 408 B more only for UEs with a generator —
//! where every slot used to carry 280 + 128 + 2 B. The queue adds an 8-B
//! key per live UE: its buckets never hold more keys than there are live
//! UEs and keep their buffers when drained, so its memory follows the
//! population, never the window. (A queue bucketed by time slice needs a
//! bucket per slice: ~900K per pool on a 1M-UE × 15 min run.) On that run
//! the process peak RSS is ~57 MB, against ~96 MB with time-slice buckets
//! and ~451 MB with a full block and generator per slot.
//!
//! The arena (and `iters`) are reserved for the worst case up front —
//! every slot a full block — rather than grown. Pages that are never
//! written are never resident, so the reservation costs only what the
//! pool fills, and it is never larger than a block-per-slot layout.
//! Growing by doubling instead copies the arena at each step and leaves
//! the abandoned buffers resident: a prototype cost a 20K-UE × 12 h run
//! 25–30 % peak RSS and ~5 % throughput.
//!
//! The same pool drives the inline (one-shard) path of
//! [`crate::ShardedStream`], each of its shard workers (over a strided
//! index set), and each UE-range chunk of the out-of-core generator
//! ([`crate::outofcore`]).

use crate::engine::GenConfig;
use crate::per_ue::UeEventIter;
use cn_fit::ModelSet;
use cn_trace::{TraceRecord, UeId};

/// Bits of a packed key reserved for the UE slot index.
const IDX_BITS: u32 = 24;
/// Maximum UEs per pool (16.7M); larger populations go through the
/// chunked out-of-core path.
const MAX_POOL: usize = 1 << IDX_BITS;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;

/// A monotone priority queue over packed `(t_rel_ms << 24 | slot)` keys:
/// a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990).
///
/// Monotone means pops come out in ascending key order and every insert
/// is `>=` the minimum [`Self::peek`] last returned — exactly the
/// discipline of a k-way merge of per-UE streams with strictly
/// increasing timestamps. `buckets[0]` holds the keys equal to `last`,
/// the minimum last taken out of a drained bucket; `buckets[i]` holds the
/// keys whose highest bit differing from `last` is bit `i − 1`. Every key
/// in a bucket is smaller than every key in a higher one, so the minimum
/// sits in the lowest non-empty bucket. Draining that bucket makes its
/// minimum the new `last`, and its keys all share their bits above
/// `i − 1` with it, so each moves to a strictly lower bucket: a key moves
/// at most 64 times over its life, whatever the window or population.
struct RadixHeap {
    buckets: [Vec<u64>; 65],
    /// Bit `i` set iff `buckets[i]` is non-empty.
    nonempty: u128,
    last: u64,
    /// Total queued keys.
    len: usize,
}

impl RadixHeap {
    fn new() -> RadixHeap {
        RadixHeap {
            buckets: std::array::from_fn(|_| Vec::new()),
            nonempty: 0,
            last: 0,
            len: 0,
        }
    }

    /// File `key` (`>= last`) under its bucket.
    #[inline]
    fn push(&mut self, key: u64) {
        debug_assert!(
            key >= self.last,
            "monotone insert below the current minimum"
        );
        let b = (u64::BITS - (key ^ self.last).leading_zeros()) as usize;
        self.buckets[b].push(key);
        self.nonempty |= 1 << b;
    }

    #[inline]
    fn insert(&mut self, key: u64) {
        self.len += 1;
        self.push(key);
    }

    /// Current minimum without removing it, draining the lowest non-empty
    /// bucket into lower ones if `buckets[0]` is empty.
    #[inline]
    fn peek(&mut self) -> Option<u64> {
        if self.nonempty & 1 == 0 {
            if self.nonempty == 0 {
                return None;
            }
            let b = self.nonempty.trailing_zeros() as usize;
            self.nonempty &= !(1 << b);
            // Keep the drained buffer: the bucket refills at this size.
            let mut drained = std::mem::take(&mut self.buckets[b]);
            self.last = drained.iter().copied().min().expect("non-empty bucket");
            for &key in &drained {
                self.push(key);
            }
            drained.clear();
            self.buckets[b] = drained;
        }
        Some(self.last)
    }

    /// Replace the current minimum (which the caller has peeked and
    /// consumed) with `key`, which must compare `>=` it: the minimum is
    /// taken out and `key` inserted.
    #[inline]
    fn replace_top(&mut self, key: u64) {
        self.take_top();
        self.push(key);
    }

    /// Drop the current minimum (peeked, consumed, and its UE exhausted).
    #[inline]
    fn pop_discard(&mut self) {
        self.take_top();
        self.len -= 1;
    }

    #[inline]
    fn take_top(&mut self) {
        debug_assert!(self.nonempty & 1 != 0, "the top is taken after a peek");
        let top = &mut self.buckets[0];
        top.pop();
        if top.is_empty() {
            self.nonempty &= !1;
        }
    }

    /// Keys the buckets can hold without reallocating.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum()
    }
}

/// Records generated ahead per UE while its iterator state is cache-hot.
///
/// Each UE owns an independent RNG, so advancing one UE several events
/// past the merge frontier never changes any draw order — the buffered
/// records are exactly what the iterator would produce on demand, and
/// the queue still holds one key (the next *unemitted* event) per live
/// UE, so global emission order is untouched. What changes is the cost:
/// the iterator's scattered state is touched once per `LOOKAHEAD`
/// emissions instead of once per emission.
const LOOKAHEAD: usize = 8;

/// `iter_of` entry of a slot whose UE was exhausted at priming: it has no
/// generator, and its arena block holds every record it will ever emit.
const NO_GEN: u32 = u32::MAX;

/// Longest synthesis window a pool accepts: every start-relative event
/// time (`< horizon`) must fit the 40 time bits of a packed key.
pub(crate) const MAX_HORIZON_MS: u64 = (1 << (64 - IDX_BITS)) - 1;

/// A population of per-UE generators merged through the radix-heap
/// struct-of-arrays hot path (see module docs).
pub struct UePool<'m> {
    /// Generators of the UEs whose priming filled the lookahead — the
    /// only ones that may produce more records.
    iters: Vec<UeEventIter<'m>>,
    /// Index into `iters` per slot, or [`NO_GEN`].
    iter_of: Vec<u32>,
    /// Lookahead arena of generated-but-unemitted records: a
    /// `LOOKAHEAD` block per slot with a generator, exactly the primed
    /// records per slot without one.
    recs: Vec<TraceRecord>,
    /// Start of each slot's block in `recs`.
    off: Vec<u32>,
    /// Next block index to emit, per slot.
    pos: Vec<u8>,
    /// Valid records in the block, per slot.
    fill: Vec<u8>,
    queue: RadixHeap,
    /// `config.start` in ms — keys carry start-relative times.
    base_ms: u64,
}

impl<'m> UePool<'m> {
    /// Build a pool over the UEs named by `indices`, with the same seeds,
    /// device assignment, and semantics as [`crate::generate_reference`] — so any
    /// partition of the population into pools merges back byte-identically.
    ///
    /// `indices` must be strictly increasing (every natural partition —
    /// ranges, strides — is), so slot order embeds UE order, and must
    /// name at most 2²⁴ UEs per pool; larger populations are chunked by
    /// [`crate::outofcore`]. The synthesis window may span at most
    /// 2⁴⁰ − 1 ms (~305,419 h). [`GenConfig::validate`] reports both
    /// limits as typed errors.
    pub fn new(
        models: &'m ModelSet,
        config: &GenConfig,
        indices: impl Iterator<Item = u32>,
    ) -> UePool<'m> {
        let end = config.end();
        let base_ms = config.start.as_millis();
        let horizon_ms = end.as_millis().saturating_sub(base_ms);
        assert!(
            horizon_ms <= MAX_HORIZON_MS,
            "a UePool spans at most {MAX_HORIZON_MS} ms; got a {horizon_ms} ms window"
        );
        let (lo, hi) = indices.size_hint();
        let cap = hi.unwrap_or(lo).min(MAX_POOL);
        let mut iter_of = Vec::with_capacity(cap);
        let mut off = Vec::with_capacity(cap);
        let mut pos = Vec::with_capacity(cap);
        let mut fill = Vec::with_capacity(cap);
        let mut queue = RadixHeap::new();
        // Worst case up front, never grown (see "Memory" above).
        let mut iters = Vec::with_capacity(cap);
        let mut recs = Vec::with_capacity(cap * LOOKAHEAD);
        let mut last_index = None;
        for index in indices {
            assert!(
                last_index.is_none_or(|last| index > last),
                "pool indices must be strictly increasing (got {index} after {last_index:?})"
            );
            last_index = Some(index);
            let slot = iter_of.len();
            assert!(
                slot < MAX_POOL,
                "a UePool holds at most {MAX_POOL} UEs; chunk larger populations \
                 through the out-of-core path"
            );
            let device = config.device_of(index);
            let mut it = UeEventIter::with_semantics(
                models.device(device),
                models.method,
                UeId(index),
                config.start,
                end,
                config.ue_seed(index),
                config.semantics,
            );
            let start = recs.len();
            recs.extend(it.by_ref().take(LOOKAHEAD));
            let k = recs.len() - start;
            if k > 0 {
                queue.insert(pack_key(recs[start].t.as_millis() - base_ms, slot));
            }
            if k == LOOKAHEAD {
                iter_of.push(iters.len() as u32);
                iters.push(it);
            } else {
                // Exhausted before filling the lookahead: drop the
                // generator now, keep only the records it produced.
                iter_of.push(NO_GEN);
            }
            off.push(start as u32);
            pos.push(0u8);
            fill.push(k as u8);
        }
        UePool {
            iters,
            iter_of,
            recs,
            off,
            pos,
            fill,
            queue,
            base_ms,
        }
    }

    /// Emit the globally next record, advancing its UE's generator.
    #[inline]
    pub fn next_record(&mut self) -> Option<TraceRecord> {
        let key = self.queue.peek()?;
        let slot = (key & IDX_MASK) as usize;
        let p = self.pos[slot] as usize;
        let block = self.off[slot] as usize;
        let rec = self.recs[block + p];
        if p + 1 < self.fill[slot] as usize {
            // Serve the next emission from the lookahead block.
            self.pos[slot] = (p + 1) as u8;
            let nt = self.recs[block + p + 1].t.as_millis();
            self.queue.replace_top(pack_key(nt - self.base_ms, slot));
        } else {
            // Block drained: refill while the iterator state is hot. A
            // slot without a generator (`NO_GEN` indexes past `iters`)
            // was exhausted at priming and retires here.
            let mut k = 0usize;
            if let Some(it) = self.iters.get_mut(self.iter_of[slot] as usize) {
                let buf = &mut self.recs[block..block + LOOKAHEAD];
                while k < LOOKAHEAD {
                    match it.next() {
                        Some(r) => {
                            buf[k] = r;
                            k += 1;
                        }
                        None => break,
                    }
                }
            }
            self.pos[slot] = 0;
            self.fill[slot] = k as u8;
            if k > 0 {
                let nt = self.recs[block].t.as_millis();
                self.queue.replace_top(pack_key(nt - self.base_ms, slot));
            } else {
                self.queue.pop_discard();
            }
        }
        Some(rec)
    }

    /// Number of UEs that still have events pending.
    pub fn live(&self) -> usize {
        self.queue.len
    }

    /// Generators kept after priming.
    #[cfg(test)]
    fn kept_generators(&self) -> usize {
        self.iters.len()
    }
}

/// Pack a start-relative event time and a pool slot into one orderable
/// key. `t_rel` gets 40 bits (~34 years of ms); slots get [`IDX_BITS`].
#[inline]
fn pack_key(t_rel: u64, slot: usize) -> u64 {
    debug_assert!(t_rel <= MAX_HORIZON_MS, "event time out of key range");
    (t_rel << IDX_BITS) | slot as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::{PopulationMix, Timestamp};
    use cn_world::{generate_world, WorldConfig};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn fitted() -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(30, 14, 8), 2.0, 5));
        fit(&trace, &FitConfig::new(Method::Ours))
    }

    #[test]
    fn partitioned_pools_cover_the_full_population() {
        // Merging two disjoint pools by hand must equal one pool over all
        // UEs — the invariant the shard workers and out-of-core chunks
        // both rely on.
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(14, 6, 4),
            Timestamp::at_hour(0, 11),
            2.0,
            99,
        );
        let total = config.population.total();
        let mut whole = Vec::new();
        let mut pool = UePool::new(&models, &config, 0..total);
        while let Some(r) = pool.next_record() {
            whole.push(r);
        }
        assert_eq!(pool.live(), 0);

        let mut halves = Vec::new();
        for range in [0..total / 2, total / 2..total] {
            let mut p = UePool::new(&models, &config, range);
            while let Some(r) = p.next_record() {
                halves.push(r);
            }
        }
        halves.sort();
        assert_eq!(whole, halves);
        assert_eq!(
            whole,
            crate::generate_reference(&models, &config).into_records()
        );
        assert!(whole.len() > 50, "only {} events", whole.len());
    }

    #[test]
    fn empty_pool_yields_nothing() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(0, 0, 0),
            Timestamp::at_hour(0, 0),
            1.0,
            1,
        );
        let mut pool = UePool::new(&models, &config, std::iter::empty());
        assert_eq!(pool.next_record(), None);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn live_counts_ues_down_to_zero() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(10, 4, 2),
            Timestamp::at_hour(0, 12),
            1.0,
            3,
        );
        let mut pool = UePool::new(&models, &config, 0..16);
        assert!(pool.live() <= 16);
        let mut last = pool.live();
        while pool.next_record().is_some() {
            assert!(pool.live() <= last, "live UEs only ever retire");
            last = pool.live();
        }
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn only_ues_that_filled_the_lookahead_keep_a_generator() {
        // Half an hour leaves most UEs exhausted at priming and some with
        // a full lookahead block; the pool must keep exactly the latter's
        // generators and still merge byte-identically.
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(60, 25, 15),
            Timestamp::at_hour(0, 18),
            0.5,
            11,
        );
        let total = config.population.total();
        let filled = (0..total)
            .filter(|&index| {
                let it = UeEventIter::with_semantics(
                    models.device(config.device_of(index)),
                    models.method,
                    UeId(index),
                    config.start,
                    config.end(),
                    config.ue_seed(index),
                    config.semantics,
                );
                it.take(LOOKAHEAD).count() == LOOKAHEAD
            })
            .count();
        let mut pool = UePool::new(&models, &config, 0..total);
        assert_eq!(pool.kept_generators(), filled);
        assert!(
            0 < filled && filled < total as usize,
            "{filled} of {total} UEs filled the lookahead"
        );
        let mut out = Vec::new();
        while let Some(r) = pool.next_record() {
            out.push(r);
        }
        assert_eq!(
            out,
            crate::generate_reference(&models, &config).into_records()
        );
    }

    #[test]
    #[should_panic(expected = "a UePool spans at most 1099511627775 ms")]
    fn a_window_past_the_key_range_is_rejected_up_front() {
        // 305,421 h overflows the 40 key bits; the pool must refuse it
        // before priming instead of wrapping keys into an index panic.
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(1, 0, 0),
            Timestamp::at_hour(0, 0),
            305_421.0,
            1,
        );
        UePool::new(&models, &config, 0..1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_indices_are_rejected() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(4, 2, 1),
            Timestamp::at_hour(0, 0),
            1.0,
            1,
        );
        UePool::new(&models, &config, [1u32, 0].into_iter());
    }

    #[test]
    fn queue_memory_follows_live_ues_not_the_window() {
        // A handful of UEs over the longest window a pool accepts: the
        // queue's buckets must hold about as many keys as there are UEs,
        // not one slot per time slice of the window.
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(3, 2, 1),
            Timestamp::at_hour(0, 0),
            305_419.0,
            8,
        );
        let total = config.population.total();
        let mut pool = UePool::new(&models, &config, 0..total);
        assert_eq!(pool.live(), total as usize);
        for _ in 0..200 {
            pool.next_record().expect("long-lived UEs keep emitting");
        }
        assert!(pool.live() > 0);
        let capacity = pool.queue.capacity();
        assert!(capacity <= 64 * total as usize, "{capacity} key slots");
    }

    /// One step of the queue oracle test. Deltas are added to the last
    /// key `peek` returned, which keeps every insert monotone.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64),
        Peek,
        ReplaceTop(u64),
        PopDiscard,
        /// Insert `floor + delta + 2^i` for every bit `i`: one key per
        /// bucket level, drained back down through every lower one.
        Ladder(u64),
    }

    fn delta() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            0u64..16,
            (1u64 << IDX_BITS)..(1 << (IDX_BITS + 1)),
            0u64..(1 << 40),
            any::<u64>(),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            delta().prop_map(Op::Insert),
            Just(Op::Peek),
            delta().prop_map(Op::ReplaceTop),
            Just(Op::PopDiscard),
            delta().prop_map(Op::Ladder),
        ]
    }

    /// Run `ops` against both the radix heap and a `BinaryHeap` oracle,
    /// then drain both; every peek, and the length after every step,
    /// must agree.
    fn matches_oracle(ops: &[Op]) -> Result<(), TestCaseError> {
        let mut q = RadixHeap::new();
        let mut oracle = BinaryHeap::new();
        let mut floor = 0u64;
        for op in ops {
            match *op {
                Op::Insert(d) => {
                    q.insert(floor.saturating_add(d));
                    oracle.push(Reverse(floor.saturating_add(d)));
                }
                Op::Ladder(d) => {
                    for bit in 0..u64::BITS {
                        let key = floor.saturating_add(d).saturating_add(1 << bit);
                        q.insert(key);
                        oracle.push(Reverse(key));
                    }
                }
                Op::Peek | Op::ReplaceTop(_) | Op::PopDiscard => {
                    let top = q.peek();
                    prop_assert_eq!(top, oracle.peek().map(|r| r.0));
                    let Some(top) = top else { continue };
                    floor = top;
                    match *op {
                        Op::ReplaceTop(d) => {
                            q.replace_top(top.saturating_add(d));
                            oracle.pop();
                            oracle.push(Reverse(top.saturating_add(d)));
                        }
                        Op::PopDiscard => {
                            q.pop_discard();
                            oracle.pop();
                        }
                        _ => {}
                    }
                }
            }
            prop_assert_eq!(q.len, oracle.len());
        }
        while let Some(Reverse(want)) = oracle.pop() {
            prop_assert_eq!(q.peek(), Some(want));
            q.pop_discard();
        }
        prop_assert_eq!(q.peek(), None);
        prop_assert_eq!(q.len, 0);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn radix_heap_pops_like_a_binary_heap(ops in prop::collection::vec(op(), 0..200)) {
            matches_oracle(&ops)?;
        }
    }

    #[test]
    fn radix_heap_edge_keys() {
        for keys in [
            vec![0, 0, 0],
            vec![u64::MAX, 1 << 63, (1 << 63) | 1, u64::MAX],
            vec![1 << IDX_BITS, (1 << IDX_BITS) - 1, 1 << IDX_BITS],
            // Every key in the top bucket at first: draining it files one
            // key per lower level, and each later pop drains the next.
            (0..63)
                .map(|bit| (1 << 63) + (1 << bit))
                .chain([1 << 63, u64::MAX])
                .collect(),
        ] {
            let ops: Vec<Op> = keys.iter().map(|&k| Op::Insert(k)).collect();
            matches_oracle(&ops).unwrap();
        }
        matches_oracle(&[
            Op::Insert(5),
            Op::Peek,
            Op::Ladder(0),
            Op::ReplaceTop(0),
            Op::Ladder(u64::MAX),
        ])
        .unwrap();
    }
}
