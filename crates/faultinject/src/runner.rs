//! Sharded campaign execution: the one scoped worker pool of this crate,
//! `execute`, fans a list of campaign cells across N threads **without
//! giving up byte-identical scorecards**. The collected matrix
//! ([`run_matrix_with`]), the streamed matrix
//! ([`run_matrix_streamed_corpus`](crate::stream::run_matrix_streamed_corpus)),
//! the fleet's phase B ([`run_fleet_corpus`](crate::fleet::run_fleet_corpus))
//! and the rate × size sweep ([`run_fleet_sweep`](crate::sweep::run_fleet_sweep))
//! are each one call to it with their own replay and fold closures.
//! (`Fleet::run_sharded` in `safemem-fleet` keeps its own shard loop: that
//! crate sits below this one, and its loop has no record phase.)
//!
//! # The determinism-under-parallelism invariant
//!
//! Every campaign cell is a *pure function of its spec*:
//! [`run_campaign`](crate::oracle::run_campaign)
//! builds a private machine, OS, controller, and injector per cell, and the
//! injector derives its decision stream from the cell's campaign seed alone
//! (see [`SmRng::keyed`](crate::rng::SmRng::keyed)). Workers therefore share
//! **no** mutable simulation state — the shared objects are atomic cursors
//! handing out work indices and, under [`TraceMode::Memoized`], *immutable*
//! recorded traces behind `Arc`. Scheduling decides *when* a cell runs,
//! never *what* it computes, and every fold is either order-independent or
//! re-sorted into cell-index order before rendering. The aggregate
//! scorecard is byte-identical for any thread count and any interleaving;
//! `tests/parallel_determinism.rs` pins this for 1, 2, and 8 threads.
//!
//! # Record once, replay many
//!
//! A recorded trace is a pure function of the spec fields that feed the
//! recording run ([`TraceKey`]: workload, workload seed, request count, and
//! the OS/controller shape). Within a preset sweep every seed shares those
//! fields, so a harsh 32 × 5 matrix has only 5 distinct traces. The
//! executor exploits this in two phases: phase one shards the *unique*
//! trace keys across the workers and records each exactly once; after a
//! barrier, phase two shards the cells, each replaying against the shared
//! `Arc<RecordedTrace>`. Under [`TraceMode::FreshRecord`] phase one is empty
//! and each cell records its own trace — the CI determinism gate diffs the
//! two modes' scorecards.
//!
//! Per-worker timing and injection counters ([`WorkerReport`]) are the one
//! deliberately schedule-dependent output: they describe the execution, not
//! the experiment, and are rendered separately from the scorecard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use safemem_ecc::EccMode;
use safemem_os::SwapPolicy;
use safemem_workloads::{workload_by_name, ColumnarReplayer};

use crate::corpus::{obtain_campaign_trace, TraceCorpus};
use crate::inject::InjectionLog;
use crate::oracle::{
    replay_panel_columnar_with, CampaignError, CampaignResult, GroundTruth, RecordedTrace,
    ToolScore,
};
use crate::spec::CampaignSpec;

/// The worker count used when the caller does not pin one: the host's
/// available parallelism (1 if it cannot be determined).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Expands a seeds × workloads matrix into campaign specs, in the canonical
/// cell order: seed-major, workload-minor (`cell = row * workloads + col`).
/// This is the single place the cell order is defined; the runner and every
/// scorecard consumer inherit it.
///
/// # Errors
///
/// Returns [`CampaignError`] for an unknown preset or workload name — the
/// whole matrix is validated up front so a sweep never dies mid-flight on a
/// typo.
pub fn expand_matrix(
    preset: &str,
    workloads: &[String],
    seeds: u64,
    seed0: u64,
    requests: Option<u64>,
) -> Result<Vec<CampaignSpec>, CampaignError> {
    if seeds == 0 {
        return Err(CampaignError("matrix needs at least one seed".into()));
    }
    if workloads.is_empty() {
        return Err(CampaignError("matrix needs at least one workload".into()));
    }
    for name in workloads {
        if workload_by_name(name).is_none() {
            return Err(CampaignError(format!("unknown workload {name:?}")));
        }
    }
    let mut specs = reserve_cells(u128::from(seeds) * workloads.len() as u128, "--seeds")?;
    for i in 0..seeds {
        let seed = seed0.wrapping_add(i);
        for workload in workloads {
            let mut spec = CampaignSpec::preset(preset, workload, seed).ok_or_else(|| {
                CampaignError(format!(
                    "unknown preset {preset:?} (valid presets: {})",
                    CampaignSpec::PRESETS.join("/")
                ))
            })?;
            if requests.is_some() {
                spec.requests = requests;
            }
            specs.push(spec);
        }
    }
    Ok(specs)
}

/// An empty spec list with room for `cells` campaign cells. Callers pass
/// the product of their dimensions widened to `u128`, which cannot
/// overflow; a count the host cannot hold is a [`CampaignError`] naming
/// `flag` and the count, not an allocation failure that aborts the process.
pub(crate) fn reserve_cells(cells: u128, flag: &str) -> Result<Vec<CampaignSpec>, CampaignError> {
    let mut specs = Vec::new();
    usize::try_from(cells)
        .ok()
        .and_then(|n| specs.try_reserve_exact(n).ok())
        .ok_or_else(|| {
            CampaignError(format!(
                "{flag} asks for {cells} campaign cells, more than this host can hold"
            ))
        })?;
    Ok(specs)
}

/// Whether a matrix run shares recorded traces between cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record each distinct [`TraceKey`] once and replay it for every cell
    /// that shares it (the default — same results, less work).
    #[default]
    Memoized,
    /// Record a private trace per cell, exactly as `run_campaign` does. The
    /// reference mode the memoized path is diffed against.
    FreshRecord,
}

/// The spec fields that determine a recorded trace. Two cells with equal
/// keys replay byte-identical op streams, so the runner records the trace
/// once per key. The campaign seed and fault mix are deliberately absent:
/// recording runs uninstrumented and uninjected.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Workload name.
    pub workload: String,
    /// Workload input seed.
    pub workload_seed: u64,
    /// Request count forwarded to the workload.
    pub requests: Option<u64>,
    /// Physical memory size of the recording OS.
    pub phys_bytes: u64,
    /// Swap policy of the recording OS.
    pub swap_policy: SwapPolicy,
    /// Periodic scrub interval of the recording OS.
    pub scrub_interval_cycles: Option<u64>,
    /// Controller mode of the recording machine.
    pub ecc_mode: EccMode,
}

impl TraceKey {
    /// Extracts the trace-determining fields of a spec.
    #[must_use]
    pub fn of(spec: &CampaignSpec) -> TraceKey {
        TraceKey {
            workload: spec.workload.clone(),
            workload_seed: spec.workload_seed,
            requests: spec.requests,
            phys_bytes: spec.phys_bytes,
            swap_policy: spec.swap_policy,
            scrub_interval_cycles: spec.scrub_interval_cycles,
            ecc_mode: spec.ecc_mode,
        }
    }
}

/// What one worker did during a matrix run. Which cells land on which worker
/// depends on scheduling, so these numbers are *not* part of the
/// deterministic scorecard — they exist to show shard balance and measured
/// throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerReport {
    /// Worker index (0-based).
    pub worker: usize,
    /// Campaign cells this worker executed.
    pub campaigns: usize,
    /// Traces this worker recorded (unique keys in the memoized phase, one
    /// per cell under [`TraceMode::FreshRecord`]).
    pub traces_recorded: usize,
    /// Wall time this worker spent recording and replaying campaigns.
    pub busy: Duration,
    /// Total injection events across this worker's cells (bit flips, bursts,
    /// forced scrubs, DMA transfers and DMA faults, summed over the panel).
    pub injection_events: u64,
}

/// A completed matrix run: deterministic results in cell order plus the
/// schedule-dependent execution telemetry.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Campaign results in canonical cell order — identical for every thread
    /// count.
    pub results: Vec<CampaignResult>,
    /// Per-worker execution telemetry, sorted by worker index.
    pub workers: Vec<WorkerReport>,
    /// Worker threads actually spawned (the requested count, capped at the
    /// cell count).
    pub threads: usize,
    /// Wall time for the whole matrix.
    pub wall: Duration,
}

/// A replayed cell's output as the executor's telemetry sees it.
pub(crate) trait CellOutput {
    /// Injection events the cell's replay produced (bit flips, bursts,
    /// forced scrubs, DMA transfers and DMA faults).
    fn injection_events(&self) -> u64;
}

fn log_events(log: &InjectionLog) -> u64 {
    log.data_bit_flips
        + log.code_bit_flips
        + log.multi_bit_bursts
        + log.forced_scrub_cycles
        + log.dma_transfers
        + log.dma_faults
}

impl CellOutput for CampaignResult {
    fn injection_events(&self) -> u64 {
        self.tools.iter().map(|t| log_events(&t.injected)).sum()
    }
}

impl CellOutput for (GroundTruth, ToolScore) {
    fn injection_events(&self) -> u64 {
        log_events(&self.1.injected)
    }
}

/// The crate's one scoped worker pool: runs every cell of `specs` on up to
/// `threads` workers and returns their telemetry, sorted by worker index
/// (one report per worker spawned).
///
/// Under [`TraceMode::Memoized`] the workers first shard the *unique*
/// [`TraceKey`]s of `specs` and obtain each trace once (from `corpus` when
/// one is given, recorded otherwise); a barrier then releases the replay
/// phase. Under [`TraceMode::FreshRecord`] each cell obtains its own trace.
/// Either way an atomic cursor hands out cells (dynamic self-scheduling,
/// so an expensive cell does not stall a whole stripe); each cell runs
/// `replay` on its trace with the worker's own [`ColumnarReplayer`], and
/// its output goes to `fold` together with its cell index. Determinism is
/// unaffected because the shared traces are immutable and each equals what
/// the cell would have recorded privately (see the module docs).
///
/// # Errors
///
/// Returns the lowest-cell-index [`CampaignError`] that `replay` or `fold`
/// raised (the remaining cells still run), so the reported error does not
/// depend on scheduling. A failed recording fails every cell that shares
/// its key, which includes the lowest-indexed one.
pub(crate) fn execute<T: CellOutput>(
    specs: &[CampaignSpec],
    threads: usize,
    mode: TraceMode,
    corpus: Option<&TraceCorpus>,
    replay: impl Fn(&CampaignSpec, &RecordedTrace, &mut ColumnarReplayer) -> Result<T, CampaignError>
        + Sync,
    fold: impl Fn(usize, T) -> Result<(), CampaignError> + Sync,
) -> Result<Vec<WorkerReport>, CampaignError> {
    let threads = threads.max(1).min(specs.len().max(1));

    // Map each cell to its trace slot. Under FreshRecord the table is empty
    // and every cell records privately in phase two.
    let mut key_index: HashMap<TraceKey, usize> = HashMap::new();
    let mut slot_of_cell: Vec<usize> = Vec::new();
    let mut slot_spec: Vec<&CampaignSpec> = Vec::new();
    if mode == TraceMode::Memoized {
        slot_of_cell.reserve(specs.len());
        for spec in specs {
            let next = key_index.len();
            let slot = *key_index.entry(TraceKey::of(spec)).or_insert(next);
            if slot == next {
                slot_spec.push(spec);
            }
            slot_of_cell.push(slot);
        }
    }
    let slots: Vec<OnceLock<Result<Arc<RecordedTrace>, CampaignError>>> =
        (0..slot_spec.len()).map(|_| OnceLock::new()).collect();

    let record_cursor = AtomicUsize::new(0);
    let cell_cursor = AtomicUsize::new(0);
    let barrier = Barrier::new(threads);
    // The lowest-indexed failing cell, so the reported error never depends
    // on scheduling.
    let first_error: Mutex<Option<(usize, CampaignError)>> = Mutex::new(None);
    let workers: Mutex<Vec<WorkerReport>> = Mutex::new(Vec::with_capacity(threads));

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (slots, slot_spec, slot_of_cell) = (&slots, &slot_spec, &slot_of_cell);
            let (record_cursor, cell_cursor, barrier) = (&record_cursor, &cell_cursor, &barrier);
            let (replay, fold, first_error, workers) = (&replay, &fold, &first_error, &workers);
            scope.spawn(move || {
                let mut replayer = ColumnarReplayer::new();
                let mut report = WorkerReport {
                    worker,
                    campaigns: 0,
                    traces_recorded: 0,
                    busy: Duration::ZERO,
                    injection_events: 0,
                };
                let mut obtain = |spec: &CampaignSpec| {
                    obtain_campaign_trace(spec, corpus).map(|(trace, fresh)| {
                        report.traces_recorded += usize::from(fresh);
                        trace
                    })
                };

                // Phase one: obtain each unique trace exactly once.
                loop {
                    let slot = record_cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = slot_spec.get(slot).copied() else {
                        break;
                    };
                    let t0 = Instant::now();
                    let trace = obtain(spec).map(Arc::new);
                    report.busy += t0.elapsed();
                    slots[slot]
                        .set(trace)
                        .expect("the cursor hands each slot to one worker");
                }
                barrier.wait();

                // Phase two: replay and fold every cell.
                loop {
                    let index = cell_cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(index) else {
                        break;
                    };
                    let t0 = Instant::now();
                    let result = match slot_of_cell.get(index) {
                        Some(&slot) => {
                            match slots[slot].get().expect("phase one filled every slot") {
                                Ok(trace) => replay(spec, trace, &mut replayer),
                                Err(e) => Err(e.clone()),
                            }
                        }
                        None => obtain(spec).and_then(|trace| replay(spec, &trace, &mut replayer)),
                    };
                    report.busy += t0.elapsed();
                    report.campaigns += 1;
                    let folded = result.and_then(|output| {
                        report.injection_events += output.injection_events();
                        fold(index, output)
                    });
                    if let Err(e) = folded {
                        let mut lowest = first_error.lock().expect("no panics hold the error lock");
                        if lowest.as_ref().is_none_or(|(at, _)| index < *at) {
                            *lowest = Some((index, e));
                        }
                    }
                }
                workers
                    .lock()
                    .expect("no panics hold the worker lock")
                    .push(report);
            });
        }
    });

    if let Some((_, e)) = first_error.into_inner().expect("scope joined all workers") {
        return Err(e);
    }
    let mut workers = workers.into_inner().expect("scope joined all workers");
    workers.sort_by_key(|w| w.worker);
    Ok(workers)
}

/// Runs every spec in the matrix across `threads` workers (`execute`) and
/// collects the results in cell order.
///
/// # Errors
///
/// Returns the lowest-cell-index [`CampaignError`] if any cell fails (the
/// remaining cells still run), so the reported error does not depend on
/// scheduling either. A failed *recording* fails every cell that shares the
/// key, which includes the lowest-indexed one.
pub fn run_matrix_with(
    specs: &[CampaignSpec],
    threads: usize,
    mode: TraceMode,
) -> Result<MatrixReport, CampaignError> {
    let start = Instant::now();
    let cells = Mutex::new(Vec::with_capacity(specs.len()));
    let workers = execute(
        specs,
        threads,
        mode,
        None,
        replay_panel_columnar_with,
        |index, result| {
            cells
                .lock()
                .expect("no panics hold the cell lock")
                .push((index, result));
            Ok(())
        },
    )?;
    let mut cells = cells.into_inner().expect("scope joined all workers");
    cells.sort_by_key(|(index, _)| *index);
    Ok(MatrixReport {
        results: cells.into_iter().map(|(_, result)| result).collect(),
        threads: workers.len(),
        workers,
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_specs() -> Vec<CampaignSpec> {
        let workloads = vec!["ypserv2".to_string(), "tar".to_string()];
        expand_matrix("harsh", &workloads, 2, 0, Some(24)).expect("valid matrix")
    }

    #[test]
    fn expand_matrix_is_seed_major_workload_minor() {
        let workloads = vec!["ypserv2".to_string(), "tar".to_string()];
        let specs = expand_matrix("harsh", &workloads, 2, 5, None).expect("valid matrix");
        let cells: Vec<(u64, &str)> = specs
            .iter()
            .map(|s| (s.seed, s.workload.as_str()))
            .collect();
        assert_eq!(
            cells,
            vec![(5, "ypserv2"), (5, "tar"), (6, "ypserv2"), (6, "tar")]
        );
    }

    #[test]
    fn expand_matrix_validates_up_front() {
        let good = vec!["tar".to_string()];
        let bad = vec!["tar".to_string(), "nginx".to_string()];
        assert!(
            expand_matrix("harsh", &good, 0, 0, None).is_err(),
            "0 seeds"
        );
        assert!(
            expand_matrix("harsh", &[], 1, 0, None).is_err(),
            "no workloads"
        );
        assert!(
            expand_matrix("brutal", &good, 1, 0, None).is_err(),
            "bad preset"
        );
        assert!(
            expand_matrix("harsh", &bad, 1, 0, None).is_err(),
            "bad workload"
        );
    }

    #[test]
    fn cell_counts_beyond_the_host_are_an_error() {
        let cells = u128::from(u64::MAX) * 6;
        let err = reserve_cells(cells, "--seeds with --sampling").expect_err("too many cells");
        assert_eq!(
            err.0,
            format!("--seeds with --sampling asks for {cells} campaign cells, more than this host can hold")
        );
        assert!(reserve_cells(4, "--seeds").expect("small").capacity() >= 4);
    }

    #[test]
    fn every_cell_runs_exactly_once_and_in_order() {
        let specs = fast_specs();
        let report = run_matrix_with(&specs, 3, TraceMode::Memoized).expect("matrix runs");
        assert_eq!(report.results.len(), specs.len());
        for (result, spec) in report.results.iter().zip(&specs) {
            assert_eq!(&result.spec, spec, "results come back in cell order");
        }
        let total: usize = report.workers.iter().map(|w| w.campaigns).sum();
        assert_eq!(total, specs.len(), "workers account for every cell");
    }

    #[test]
    fn memoized_and_fresh_record_agree_cell_for_cell() {
        let specs = fast_specs();
        let memo = run_matrix_with(&specs, 2, TraceMode::Memoized).expect("matrix runs");
        let fresh = run_matrix_with(&specs, 2, TraceMode::FreshRecord).expect("matrix runs");
        assert_eq!(memo.results, fresh.results);
    }

    #[test]
    fn memoized_run_records_one_trace_per_unique_key() {
        let specs = fast_specs(); // 2 seeds × 2 workloads → 2 unique traces
        let memo = run_matrix_with(&specs, 3, TraceMode::Memoized).expect("matrix runs");
        let recorded: usize = memo.workers.iter().map(|w| w.traces_recorded).sum();
        assert_eq!(recorded, 2, "one recording per (workload, os-shape) key");
        let fresh = run_matrix_with(&specs, 3, TraceMode::FreshRecord).expect("matrix runs");
        let recorded: usize = fresh.workers.iter().map(|w| w.traces_recorded).sum();
        assert_eq!(recorded, specs.len(), "fresh mode records per cell");
    }

    #[test]
    fn unknown_workload_fails_the_memoized_matrix_too() {
        let mut specs = fast_specs();
        specs[1].workload = "nginx".into();
        let err = run_matrix_with(&specs, 2, TraceMode::Memoized).expect_err("bad cell");
        assert!(err.0.contains("nginx"), "{err}");
    }

    #[test]
    fn oversubscribed_pool_caps_at_cell_count() {
        let specs = fast_specs();
        let report = run_matrix_with(&specs, 64, TraceMode::Memoized).expect("matrix runs");
        assert_eq!(report.threads, specs.len());
        assert_eq!(report.workers.len(), specs.len());
    }
}
