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
//! (struct-of-arrays) and replaces the tournament with a **calendar
//! queue** bucketed by event time:
//!
//! * `recs: Vec<TraceRecord>` — one arena of generated-but-unemitted
//!   records, a short block per UE slot, read exactly once per emission;
//! * `iters: Vec<UeEventIter>` — the per-UE generator state, touched
//!   only when the winning UE must be advanced;
//! * [`CalendarQueue`] — packed `u64` keys (`t_rel_ms << 24 | slot`)
//!   bucketed into coarse time slices sized for ~16 pending events each.
//!   The bucket currently draining is a tiny binary min-heap (usually a
//!   handful of keys, L1-resident), so emitting a record costs O(log
//!   *bucket*) ≈ 4 compares on dense memory plus one push into a future
//!   bucket — instead of ⌈log₂k⌉ dependent misses.
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
//! where every slot used to carry 280 + 128 + 2 B. On that 1M-UE run the
//! process peak RSS falls from ~451 to ~96 MB, and priming
//! (`gen.bootstrap_ms`) takes about half as long.
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
/// Bucket-count ceiling: past this the bucket width widens instead.
const MAX_BUCKETS: u64 = 1 << 22;
/// Events-per-UE-hour guess used only to size buckets (perf, not
/// correctness: any bucket width yields the same output order).
const EST_EVENTS_PER_UE_HOUR: u64 = 16;
/// Target pending keys per bucket.
const TARGET_PER_BUCKET: u64 = 16;

/// A monotone priority queue over packed `(t_rel_ms << 24 | slot)` keys:
/// coarse time buckets, each drained through a small binary min-heap.
///
/// Monotone means pops come out in ascending key order and every insert
/// is `>=` the last popped key — exactly the discipline of a k-way merge
/// of per-UE streams with strictly increasing timestamps. Inserts into
/// the bucket currently draining go straight into its heap; later
/// buckets are plain unsorted `Vec` pushes, heapified on first drain.
struct CalendarQueue {
    /// log₂ of the bucket width in ms.
    shift: u32,
    /// Future keys, bucketed by `t_rel >> shift` (index clamped to the
    /// last bucket).
    buckets: Vec<Vec<u64>>,
    /// Min-heap over the keys of the bucket currently draining.
    active: Vec<u64>,
    /// Index of the draining bucket (`usize::MAX` before the first pop).
    open: usize,
    /// Total queued keys (active + all buckets).
    len: usize,
}

impl CalendarQueue {
    /// Queue for keys with `t_rel` in `[0, horizon_ms)`, sized so that
    /// `est_events` spread over the horizon land ~[`TARGET_PER_BUCKET`]
    /// keys per bucket.
    fn new(horizon_ms: u64, est_events: u64) -> CalendarQueue {
        let width = (horizon_ms / (est_events / TARGET_PER_BUCKET).max(1)).max(1);
        let mut shift = width.ilog2();
        while (horizon_ms >> shift) + 2 > MAX_BUCKETS {
            shift += 1;
        }
        let nbuckets = ((horizon_ms >> shift) + 2) as usize;
        CalendarQueue {
            shift,
            buckets: vec![Vec::new(); nbuckets],
            active: Vec::new(),
            open: usize::MAX,
            len: 0,
        }
    }

    /// Which bucket a key belongs to.
    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        (((key >> IDX_BITS) >> self.shift) as usize).min(self.buckets.len() - 1)
    }

    #[inline]
    fn insert(&mut self, key: u64) {
        self.len += 1;
        let b = self.bucket_of(key);
        // A monotone insert can only target the draining bucket or a
        // later one; `open` is MAX before the first pop, so priming
        // inserts always take the bucket branch.
        if b == self.open {
            heap_push(&mut self.active, key);
        } else {
            self.buckets[b].push(key);
        }
    }

    /// Current minimum without removing it, opening the next non-empty
    /// bucket if the draining one is exhausted.
    #[inline]
    fn peek(&mut self) -> Option<u64> {
        while self.active.is_empty() {
            if self.len == 0 {
                return None;
            }
            let mut b = self.open.wrapping_add(1);
            while self.buckets[b].is_empty() {
                b += 1;
            }
            self.active = std::mem::take(&mut self.buckets[b]);
            make_heap(&mut self.active);
            self.open = b;
        }
        Some(self.active[0])
    }

    /// Replace the current minimum (which the caller has peeked and
    /// consumed) with `key`, which must compare `>=` it. When `key` lands
    /// in the draining bucket — the common case for short inter-event
    /// gaps — this is a single root sift instead of a pop-sift plus a
    /// push-sift. Equivalent to `pop` then `insert`.
    #[inline]
    fn replace_top(&mut self, key: u64) {
        debug_assert!(!self.active.is_empty(), "replace_top follows peek");
        let b = self.bucket_of(key);
        if b == self.open {
            self.active[0] = key;
            sift_down(&mut self.active, 0);
        } else {
            self.buckets[b].push(key);
            heap_pop(&mut self.active);
        }
    }

    /// Drop the current minimum (peeked, consumed, and its UE exhausted).
    #[inline]
    fn pop_discard(&mut self) {
        debug_assert!(!self.active.is_empty(), "pop_discard follows peek");
        heap_pop(&mut self.active);
        self.len -= 1;
    }

    /// Full pop (open-next-bucket included). The production drain goes
    /// through [`Self::peek`] + [`Self::replace_top`] / [`Self::pop_discard`];
    /// this is the reference discipline the queue's ordering test drains
    /// through.
    #[cfg(test)]
    fn pop(&mut self) -> Option<u64> {
        loop {
            if let Some(k) = heap_pop(&mut self.active) {
                self.len -= 1;
                return Some(k);
            }
            if self.len == 0 {
                return None;
            }
            // Open the next non-empty bucket. `len > 0` with an empty
            // active heap guarantees one exists past `open`.
            let mut b = self.open.wrapping_add(1);
            while self.buckets[b].is_empty() {
                b += 1;
            }
            self.active = std::mem::take(&mut self.buckets[b]);
            make_heap(&mut self.active);
            self.open = b;
        }
    }
}

#[inline]
fn heap_push(h: &mut Vec<u64>, key: u64) {
    h.push(key);
    let mut i = h.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if h[parent] <= h[i] {
            break;
        }
        h.swap(parent, i);
        i = parent;
    }
}

#[inline]
fn heap_pop(h: &mut Vec<u64>) -> Option<u64> {
    let last = h.len().checked_sub(1)?;
    h.swap(0, last);
    let top = h.pop();
    sift_down(h, 0);
    top
}

fn make_heap(h: &mut [u64]) {
    for i in (0..h.len() / 2).rev() {
        sift_down(h, i);
    }
}

#[inline]
fn sift_down(h: &mut [u64], mut i: usize) {
    loop {
        let l = 2 * i + 1;
        if l >= h.len() {
            return;
        }
        let r = l + 1;
        let c = if r < h.len() && h[r] < h[l] { r } else { l };
        if h[i] <= h[c] {
            return;
        }
        h.swap(i, c);
        i = c;
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

/// A population of per-UE generators merged through the calendar-queue
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
    queue: CalendarQueue,
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
        let horizon_ms = end.as_millis().saturating_sub(base_ms).max(1);
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
        let mut primed: Vec<u64> = Vec::with_capacity(cap);
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
                primed.push(pack_key(recs[start].t.as_millis() - base_ms, slot));
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
        let est = (iter_of.len() as u64)
            .saturating_mul(horizon_ms.div_ceil(3_600_000))
            .saturating_mul(EST_EVENTS_PER_UE_HOUR);
        let mut queue = CalendarQueue::new(horizon_ms, est.max(1));
        for key in primed {
            queue.insert(key);
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

    /// The calendar queue is a plain monotone priority queue under the
    /// hood; hammer it with a synthetic merge-shaped workload (every
    /// insert >= the last pop) across bucket geometries.
    #[test]
    fn calendar_queue_pops_in_sorted_order() {
        // Deterministic pseudo-random keys via splitmix-style mixing.
        let mut x = 0x9E37_79B9u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (horizon, est) in [(1_000, 10), (100_000, 1_000), (3_600_000, 10)] {
            let mut q = CalendarQueue::new(horizon, est);
            let mut keys: Vec<u64> = (0..500u64)
                .map(|i| pack_key(next() % horizon, (i % 64) as usize))
                .collect();
            for &k in &keys {
                q.insert(k);
            }
            // Pop half, interleaving monotone re-inserts.
            let mut out = Vec::new();
            for _ in 0..250 {
                let k = q.pop().unwrap();
                let t_rel = k >> IDX_BITS;
                if t_rel + 10 < horizon {
                    let nk = pack_key(t_rel + 1 + next() % 9, (next() % 64) as usize);
                    q.insert(nk);
                    keys.push(nk);
                }
                out.push(k);
            }
            while let Some(k) = q.pop() {
                out.push(k);
            }
            assert_eq!(q.len, 0);
            keys.sort_unstable();
            // `out` is `keys` minus the 250 popped-and-not-reinserted…
            // actually every key inserted is eventually popped exactly
            // once, so the multisets match.
            let mut sorted_out = out.clone();
            sorted_out.sort_unstable();
            assert_eq!(sorted_out, keys, "horizon {horizon} est {est}");
            assert!(out.windows(2).all(|w| w[0] <= w[1]), "pop order not sorted");
        }
    }
}
