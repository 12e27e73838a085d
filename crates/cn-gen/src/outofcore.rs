//! Out-of-core generation: population-scale binary export under a
//! bounded memory budget.
//!
//! [`ShardedStream`](crate::ShardedStream) keeps one live generator
//! per UE, so its resident set grows linearly with the population — at
//! 10M UEs that is gigabytes of iterator state before the first record is
//! written. [`generate_out_of_core`] bounds both sides:
//!
//! 1. **Chunked generation** — the population is split into contiguous
//!    UE-range chunks of [`OutOfCoreConfig::chunk_ues`]. Each chunk runs
//!    a [`UePool`] (only `chunk_ues` generators resident at a time) and
//!    drains it into one time-sorted *run*, arena-encoded straight into
//!    the on-disk 14-byte record format via
//!    [`EncodedBlock`](cn_trace::EncodedBlock) — records are encoded
//!    exactly once, at generation.
//! 2. **Budgeted spill** — runs buffer in memory until the *total*
//!    buffered bytes would exceed
//!    [`OutOfCoreConfig::buffer_budget_bytes`]; a run growing past the
//!    budget moves to an anonymous temp file (created then immediately
//!    unlinked, so a crash leaks nothing) and keeps appending there.
//!    Peak RSS is therefore O(budget + chunk state + read windows),
//!    independent of trace length.
//! 3. **Zero-copy k-way merge** — the runs merge through a compact
//!    [`KeyLoserTree`] over packed `(t_ms, ue)` keys. When a run wins,
//!    every buffered record preceding the runner-up's key (found by
//!    galloping over the encoded bytes,
//!    [`encoded_prefix`](cn_trace::block::encoded_prefix)) is written to
//!    the sink **verbatim** with
//!    [`BinaryStreamWriter::write_encoded`] — no per-record decode or
//!    re-encode anywhere between generation and disk.
//!
//! ### Byte identity
//!
//! Record order is a strict total order and every UE lives in exactly one
//! chunk, so cross-run key comparisons never tie (see
//! [`TraceRecord::merge_key`](cn_trace::TraceRecord::merge_key)): the
//! merged byte stream is *the* unique sorted trace, identical to
//! [`cn_trace::io::to_binary`] of [`crate::generate`]'s output for the
//! same [`GenConfig`] — at every chunk size and every spill budget,
//! including a zero budget that spills every run. The `cn-verify` golden
//! gate pins this.
//!
//! ### Failure containment
//!
//! Spill and export I/O failures surface as typed
//! [`StreamError::Io`] values carrying the failing stage — the same
//! contract the sharded pipeline established for worker panics. The sink
//! is driven through [`BinaryStreamWriter`], so an export that errors out
//! leaves the zero-count placeholder header: the partial file *fails*
//! [`cn_trace::io::from_binary`] loudly and is salvageable only via the
//! explicit [`cn_trace::io::recover_binary`] path. A truncated spill file
//! (torn write, full disk) is caught by exact-length reads during the
//! merge and becomes a `spill-read` error, never a silently shortened
//! trace.

use crate::engine::GenConfig;
use crate::pool::UePool;
use crate::shard::StreamError;
use cn_fit::ModelSet;
use cn_trace::block::{encoded_prefix, record_key_at, RECORD_BYTES};
use cn_trace::io::BinaryStreamWriter;
use cn_trace::{EncodedBlock, KeyLoserTree, EXHAUSTED_KEY};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Records per arena block while draining a chunk (~56 KiB of encoded
/// bytes: large enough to amortize the append, small enough to stay
/// cache-resident while filling).
const CHUNK_BLOCK_RECORDS: usize = 4096;

/// Bytes per read window when merging a spilled run back in (a whole
/// number of records, ~112 KiB).
const SPILL_READ_BYTES: usize = RECORD_BYTES * 8192;

/// Tuning knobs for [`generate_out_of_core`].
#[derive(Debug, Clone)]
pub struct OutOfCoreConfig {
    /// UEs resident per generation chunk (clamped to ≥ 1). Each chunk
    /// holds `chunk_ues` generator states plus the pool's key/pending
    /// arrays; one sorted run is produced per chunk.
    pub chunk_ues: u32,
    /// Total bytes of run data allowed to stay buffered in memory across
    /// all runs. A run whose growth would exceed the budget spills to an
    /// unlinked temp file. `0` forces every run to disk.
    pub buffer_budget_bytes: usize,
    /// Directory for spill files (`None` = [`std::env::temp_dir`]).
    pub temp_dir: Option<PathBuf>,
}

impl Default for OutOfCoreConfig {
    fn default() -> OutOfCoreConfig {
        OutOfCoreConfig {
            chunk_ues: 65_536,
            buffer_budget_bytes: 64 << 20,
            temp_dir: None,
        }
    }
}

/// What a completed out-of-core export did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfCoreReport {
    /// Records written to the sink.
    pub events: u64,
    /// Sorted runs generated (one per UE chunk).
    pub runs: usize,
    /// Runs that exceeded the memory budget and spilled to temp files.
    pub spilled_runs: usize,
    /// Total bytes written to the sink (header + records).
    pub bytes_written: u64,
}

/// Typed-error helper: stringify an underlying failure under its stage.
fn io_err(stage: &'static str, e: impl std::fmt::Display) -> StreamError {
    StreamError::Io {
        stage,
        message: e.to_string(),
    }
}

/// Monotonic disambiguator for spill-file names within this process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Create an anonymous spill file in `dir`: created exclusively, then
/// immediately unlinked so the kernel reclaims it when the handle drops —
/// a crash mid-export leaks no on-disk state.
fn create_spill_file(occ: &OutOfCoreConfig) -> Result<File, StreamError> {
    // Spills are cold (one per run that exceeds the budget, each
    // involving file I/O), so resolving the global sink here is fine.
    let _spill_span = cn_obs::trace::global_span("cn_gen_ooc_spill");
    let dir = occ.temp_dir.clone().unwrap_or_else(std::env::temp_dir);
    let path = dir.join(format!(
        "cn-gen-spill-{}-{}.run",
        std::process::id(),
        SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)
        .map_err(|e| io_err("spill-create", format!("{}: {e}", path.display())))?;
    // Unlink eagerly; the open handle keeps the data alive.
    let _ = std::fs::remove_file(&path);
    Ok(file)
}

/// One chunk's sorted run: encoded record bytes, in memory until the
/// global budget forces them to disk.
struct RunStore {
    data: RunData,
    len_bytes: u64,
}

enum RunData {
    Mem(Vec<u8>),
    Spilled(File),
}

impl RunStore {
    fn new() -> RunStore {
        RunStore {
            data: RunData::Mem(Vec::new()),
            len_bytes: 0,
        }
    }

    /// Append encoded record bytes, spilling this run to a temp file when
    /// the *global* in-memory total (`buffered`) would exceed the budget.
    fn append(
        &mut self,
        bytes: &[u8],
        buffered: &mut usize,
        occ: &OutOfCoreConfig,
    ) -> Result<(), StreamError> {
        match &mut self.data {
            RunData::Mem(buf) => {
                if *buffered + bytes.len() > occ.buffer_budget_bytes {
                    let mut file = create_spill_file(occ)?;
                    file.write_all(buf).map_err(|e| io_err("spill-write", e))?;
                    file.write_all(bytes)
                        .map_err(|e| io_err("spill-write", e))?;
                    *buffered -= buf.len();
                    self.data = RunData::Spilled(file);
                } else {
                    buf.extend_from_slice(bytes);
                    *buffered += bytes.len();
                }
            }
            RunData::Spilled(file) => {
                file.write_all(bytes)
                    .map_err(|e| io_err("spill-write", e))?;
            }
        }
        self.len_bytes += bytes.len() as u64;
        Ok(())
    }

    fn is_spilled(&self) -> bool {
        matches!(self.data, RunData::Spilled(_))
    }
}

/// Merge-side view of one run: a window of undelivered encoded bytes,
/// refilled from the spill file in [`SPILL_READ_BYTES`] slabs (memory
/// runs are a single window).
struct RunReader {
    src: RunSrc,
}

enum RunSrc {
    Mem {
        buf: Vec<u8>,
        pos: usize,
    },
    File {
        file: File,
        buf: Vec<u8>,
        pos: usize,
        /// Bytes of the run not yet loaded into `buf`.
        left: u64,
    },
}

impl RunReader {
    fn new(store: RunStore) -> Result<RunReader, StreamError> {
        match store.data {
            RunData::Mem(buf) => Ok(RunReader {
                src: RunSrc::Mem { buf, pos: 0 },
            }),
            RunData::Spilled(mut file) => {
                file.seek(SeekFrom::Start(0))
                    .map_err(|e| io_err("spill-read", e))?;
                let mut reader = RunReader {
                    src: RunSrc::File {
                        file,
                        buf: Vec::new(),
                        pos: 0,
                        left: store.len_bytes,
                    },
                };
                reader.refill()?;
                Ok(reader)
            }
        }
    }

    /// The undelivered bytes currently in memory (whole records).
    fn window(&self) -> &[u8] {
        match &self.src {
            RunSrc::Mem { buf, pos } | RunSrc::File { buf, pos, .. } => &buf[*pos..],
        }
    }

    fn consume(&mut self, n: usize) {
        match &mut self.src {
            RunSrc::Mem { pos, .. } | RunSrc::File { pos, .. } => *pos += n,
        }
    }

    /// Merge key of the run's next record ([`EXHAUSTED_KEY`] when the
    /// current window is empty — callers refill before trusting that as
    /// end-of-run for spilled sources).
    fn head_key(&self) -> u128 {
        let w = self.window();
        if w.is_empty() {
            EXHAUSTED_KEY
        } else {
            record_key_at(w, 0)
        }
    }

    /// Load the next slab of a spilled run; `Ok(false)` when the run has
    /// no bytes left (always, for memory runs, whose single window is the
    /// whole buffer). A spill file shorter than the run's recorded length
    /// — a torn or truncated file — fails the exact-length read and
    /// surfaces as a typed `spill-read` error.
    fn refill(&mut self) -> Result<bool, StreamError> {
        match &mut self.src {
            RunSrc::Mem { .. } => Ok(false),
            RunSrc::File {
                file,
                buf,
                pos,
                left,
            } => {
                if *left == 0 {
                    return Ok(false);
                }
                let take = (*left).min(SPILL_READ_BYTES as u64) as usize;
                buf.resize(take, 0);
                *pos = 0;
                file.read_exact(buf).map_err(|e| {
                    io_err(
                        "spill-read",
                        format!("torn spill file ({take} byte read): {e}"),
                    )
                })?;
                *left -= take as u64;
                Ok(true)
            }
        }
    }
}

/// Generate `config`'s population straight into a binary-format sink
/// under the memory bounds of `occ` (see module docs), returning the
/// export report and the sink.
///
/// The produced bytes are identical to
/// `cn_trace::io::to_binary(&crate::generate(models, config))` for every
/// `occ` — chunking and spilling change *where* bytes wait, never what is
/// written. On error the sink is left with its zero-count placeholder
/// header (finish-or-recover contract: the partial export cannot pose as
/// a complete trace).
pub fn generate_out_of_core<W: Write + Seek>(
    models: &ModelSet,
    config: &GenConfig,
    occ: &OutOfCoreConfig,
    sink: W,
) -> Result<(OutOfCoreReport, W), StreamError> {
    let mut writer = BinaryStreamWriter::new(sink).map_err(|e| io_err("export-header", e))?;
    // One sink resolution for the whole export; everything below runs
    // on this thread, so chunk/spill/merge spans nest under this one.
    let trace = cn_obs::trace::global();
    let _export_span = trace.is_enabled().then(|| trace.span("cn_gen_ooc_export"));

    // Phase 1: one sorted, arena-encoded run per UE-range chunk.
    let total = config.population.total();
    let chunk = occ.chunk_ues.max(1);
    let mut runs: Vec<RunStore> = Vec::new();
    let mut buffered = 0usize;
    let mut lo = 0u32;
    while lo < total {
        let hi = lo.saturating_add(chunk).min(total);
        let chunk_span = trace
            .is_enabled()
            .then(|| trace.span(&format!("cn_gen_ooc_chunk:{lo}-{hi}")));
        let mut pool = UePool::new(models, config, lo..hi);
        let mut store = RunStore::new();
        let mut block = EncodedBlock::with_capacity(CHUNK_BLOCK_RECORDS);
        while let Some(rec) = pool.next_record() {
            block.push(&rec);
            if block.len() == CHUNK_BLOCK_RECORDS {
                store.append(block.as_bytes(), &mut buffered, occ)?;
                block.clear();
            }
        }
        if !block.is_empty() {
            store.append(block.as_bytes(), &mut buffered, occ)?;
        }
        runs.push(store);
        drop(chunk_span);
        lo = hi;
    }
    let run_count = runs.len();
    let spilled_runs = runs.iter().filter(|r| r.is_spilled()).count();

    // Phase 2: zero-copy k-way merge over the encoded runs.
    let _merge_span = trace.is_enabled().then(|| trace.span("cn_gen_ooc_merge"));
    let mut readers = runs
        .into_iter()
        .map(RunReader::new)
        .collect::<Result<Vec<_>, _>>()?;
    let mut tree = KeyLoserTree::new(readers.iter().map(RunReader::head_key).collect());
    while let Some(w) = tree.winner() {
        let (bound, wins_ties) = match tree.runner_up() {
            None => (EXHAUSTED_KEY, true),
            Some(u) => (tree.key(u), w < u),
        };
        loop {
            let window = readers[w].window();
            let run_bytes = encoded_prefix(window, bound, wins_ties) * RECORD_BYTES;
            let drained_whole_window = run_bytes == window.len();
            writer
                .write_encoded(&window[..run_bytes])
                .map_err(|e| io_err("export-write", e))?;
            readers[w].consume(run_bytes);
            // The run may continue past the buffered window; keep
            // draining until the bound is reached inside a window or the
            // run has no more bytes.
            if !drained_whole_window || !readers[w].refill()? {
                break;
            }
        }
        tree.replace_winner(readers[w].head_key());
    }

    let events = writer.written();
    let sink = writer.finish().map_err(|e| io_err("export-finish", e))?;
    Ok((
        OutOfCoreReport {
            events,
            runs: run_count,
            spilled_runs,
            bytes_written: 16 + events * RECORD_BYTES as u64,
        },
        sink,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_reference;
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::io::{from_binary, to_binary, FailingWriter};
    use cn_trace::{PopulationMix, Timestamp};
    use cn_world::{generate_world, WorldConfig};
    use std::io::Cursor;

    fn fitted() -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(24, 10, 6), 2.0, 5));
        fit(&trace, &FitConfig::new(Method::Ours))
    }

    fn config() -> GenConfig {
        GenConfig::new(
            PopulationMix::new(18, 8, 5),
            Timestamp::at_hour(0, 9),
            2.0,
            7,
        )
    }

    fn occ(chunk_ues: u32, budget: usize) -> OutOfCoreConfig {
        OutOfCoreConfig {
            chunk_ues,
            buffer_budget_bytes: budget,
            temp_dir: None,
        }
    }

    #[test]
    fn matches_reference_to_binary_across_chunks_and_budgets() {
        let models = fitted();
        let config = config();
        let batch = generate_reference(&models, &config);
        let expect = to_binary(&batch);
        // A chunk whose UEs are all silent yields an empty run that never
        // appends — and so never spills, whatever the budget.
        let nonempty_runs = |chunk: u32| {
            (0..config.population.total())
                .step_by(chunk as usize)
                .filter(|&lo| {
                    batch
                        .iter()
                        .any(|r| (lo..lo.saturating_add(chunk)).contains(&r.ue.get()))
                })
                .count()
        };
        // (chunk size, budget): single chunk, fine chunks; all-memory,
        // forced-spill (0), and a budget small enough to spill some runs
        // but not all.
        for (chunk, budget) in [
            (1_000, usize::MAX),
            (1_000, 0),
            (7, usize::MAX),
            (7, 0),
            (7, 4 * 1024),
            (1, 0),
            (5, 64),
        ] {
            let (report, cursor) = generate_out_of_core(
                &models,
                &config,
                &occ(chunk, budget),
                Cursor::new(Vec::new()),
            )
            .unwrap_or_else(|e| panic!("chunk {chunk} budget {budget}: {e}"));
            let bytes = cursor.into_inner();
            assert_eq!(
                bytes, expect,
                "chunk {chunk} budget {budget}: bytes diverged"
            );
            assert_eq!(report.events as usize, (bytes.len() - 16) / RECORD_BYTES);
            assert_eq!(report.bytes_written, bytes.len() as u64);
            let expected_runs = (config.population.total() as usize).div_ceil(chunk as usize);
            assert_eq!(report.runs, expected_runs);
            if budget == 0 {
                assert_eq!(
                    report.spilled_runs,
                    nonempty_runs(chunk),
                    "zero budget spills every non-empty run"
                );
            } else if budget == usize::MAX {
                assert_eq!(report.spilled_runs, 0, "unbounded budget spills none");
            }
        }
    }

    #[test]
    fn empty_population_exports_an_empty_trace() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(0, 0, 0),
            Timestamp::at_hour(0, 0),
            1.0,
            1,
        );
        let (report, cursor) = generate_out_of_core(
            &models,
            &config,
            &OutOfCoreConfig::default(),
            Cursor::new(Vec::new()),
        )
        .unwrap();
        assert_eq!(report.events, 0);
        assert_eq!(report.runs, 0);
        assert_eq!(from_binary(&cursor.into_inner()).unwrap().len(), 0);
    }

    #[test]
    fn failing_sink_is_a_typed_error_and_never_a_complete_trace() {
        let models = fitted();
        let config = config();
        // Enough budget for the header plus a few records: the export
        // write must fail mid-merge.
        let mut backing = Cursor::new(Vec::new());
        let sink = FailingWriter::new(&mut backing, 16 + 10 * RECORD_BYTES);
        let err = match generate_out_of_core(&models, &config, &occ(7, usize::MAX), sink) {
            Err(e) => e,
            Ok((report, _)) => panic!("sink budget exhausted, yet export wrote {report:?}"),
        };
        assert!(
            matches!(err, StreamError::Io { stage, .. } if stage.starts_with("export")),
            "{err}"
        );
        // Finish never ran: the zero-count placeholder makes the partial
        // file fail from_binary (finish-or-recover contract).
        let bytes = backing.into_inner();
        assert!(!bytes.is_empty(), "header reached the sink");
        assert!(
            from_binary(&bytes).is_err(),
            "partial export must not parse"
        );
    }

    #[test]
    fn unwritable_temp_dir_is_a_typed_spill_create_error() {
        let models = fitted();
        let config = config();
        let mut bad = occ(7, 0); // zero budget: first append must spill
        bad.temp_dir = Some(PathBuf::from("/nonexistent-cn-gen-spill-dir"));
        let err = generate_out_of_core(&models, &config, &bad, Cursor::new(Vec::new()))
            .expect_err("spill dir does not exist");
        assert!(
            matches!(
                err,
                StreamError::Io {
                    stage: "spill-create",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn torn_spill_file_is_a_typed_spill_read_error() {
        // A spill file shorter than the run's recorded length (torn
        // trailing write, ENOSPC, external truncation) must fail the
        // merge with a typed error — never emit a shortened trace.
        let mut store = RunStore::new();
        let mut buffered = 0usize;
        let cfg = occ(1, 0); // zero budget: append goes straight to disk
        let mut block = EncodedBlock::new();
        for t in 0..10u64 {
            block.push(&cn_trace::TraceRecord::new(
                Timestamp::from_millis(t),
                cn_trace::UeId(0),
                cn_trace::DeviceType::Phone,
                cn_trace::EventType::Attach,
            ));
        }
        store.append(block.as_bytes(), &mut buffered, &cfg).unwrap();
        assert!(store.is_spilled());
        // Tear the file: claim the full length but truncate the bytes.
        if let RunData::Spilled(file) = &store.data {
            file.set_len(store.len_bytes - 7).unwrap();
        }
        // The exact-length read hits the tear either on the eager first
        // window (small runs) or on a later refill.
        let err = match RunReader::new(store) {
            Err(e) => e,
            Ok(mut reader) => loop {
                let w = reader.window().len();
                reader.consume(w);
                match reader.refill() {
                    Ok(true) => continue,
                    Ok(false) => panic!("torn file read as clean exhaustion"),
                    Err(e) => break e,
                }
            },
        };
        assert!(
            matches!(
                err,
                StreamError::Io {
                    stage: "spill-read",
                    ..
                }
            ),
            "{err}"
        );
    }
}
