//! The fleet campaign: SafeMem's production story at GWP-ASan scale.
//!
//! One fleet campaign simulates `n` connection-churn server processes, each
//! running SafeMem at the sub-1.0 sampling rate
//! [`FLEET_RATE_PPM`](crate::spec::FLEET_RATE_PPM). Individually, a process
//! catches its planted bug only if the victim allocation happens to draw
//! instrumentation (probability ≈ the rate `r`); collectively, the fleet
//! catches it with probability `1 − (1 − r)^n`. The fleet scorecard
//! quantifies exactly that: per bug class it reports the observed
//! per-process detection fraction `k/n` against the predicted `r` (with a
//! 6σ binomial acceptance band), and the fleet-level detection probability
//! both ways.
//!
//! The campaign runs in two phases:
//!
//! * **Phase A — shared machine.** The whole fleet runs inside one
//!   [`Fleet`] simulation: one physical ECC memory and swap device
//!   time-multiplexed across every process through the pluggable
//!   [`SlotBackend`](safemem_machine::SlotBackend) boundary. This is the
//!   architectural half: hundreds of OS instances genuinely share one
//!   machine, and per-process virtual clocks keep the leak detector's
//!   lifetime thresholds meaningful.
//! * **Phase B — per-process campaign cells.** Every process is replayed as
//!   an isolated campaign cell under the harsh correctable-only fault mix
//!   ([`replay_safemem_columnar_with`] — SafeMem alone, not the five-tool
//!   panel), on the crate's one executor ([`runner`](crate::runner)) with
//!   the memoized trace store (three recorded traces serve the whole
//!   fleet). Results are folded straight
//!   into a fixed-size [`FleetAgg`]; no per-cell `Vec` survives the run.
//!
//! The phases cross-check each other: a corruption cell detects iff its
//! victim allocation was sampled, and both phases derive the per-process
//! sampling seed identically, so shared-machine and isolated-cell detection
//! must agree process-for-process for the uaf/obo classes (leak detection
//! also follows the sampling decision, but its idle-time threshold makes
//! the shared-machine timing part of the outcome, so the A/B check binds
//! the corruption classes only).

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use safemem_core::PPM;
use safemem_fleet::{Fleet, FleetConfig, FleetReport, ProcessSpec};
use safemem_workloads::apps::ChurnKind;

use crate::corpus::TraceCorpus;
use crate::oracle::{
    replay_safemem_columnar_with, CampaignError, GroundTruth, ToolScore, SAMPLING_STREAM,
};
use crate::rng::SmRng;
use crate::runner::{execute, reserve_cells, TraceMode, WorkerReport};
use crate::spec::{CampaignSpec, FLEET_REQUESTS, FLEET_WORKLOADS};

/// Default fleet size: big enough that at the 0.2 sampling rate the
/// fleet-level detection probability is ≈ 1 for every class, and small
/// enough that the whole two-phase campaign finishes in CI.
pub const DEFAULT_FLEET_PROCESSES: u64 = 512;

/// Expands a fleet of `processes` campaign cells: process `pid` runs
/// [`FLEET_WORKLOADS`]`[pid % 3]` with campaign seed `seed0 + pid`, so
/// every process makes independent sampling decisions.
///
/// # Errors
///
/// Returns [`CampaignError`] for an empty fleet.
pub fn expand_fleet(
    processes: u64,
    seed0: u64,
    requests: Option<u64>,
) -> Result<Vec<CampaignSpec>, CampaignError> {
    if processes == 0 {
        return Err(CampaignError("a fleet needs at least one process".into()));
    }
    let mut specs = reserve_cells(u128::from(processes), "--processes")?;
    for pid in 0..processes {
        let workload = FLEET_WORKLOADS[usize::try_from(pid % 3).expect("mod 3 fits")];
        let mut spec = CampaignSpec::fleet(workload, seed0.wrapping_add(pid));
        if requests.is_some() {
            spec.requests = requests;
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// The churn kind a fleet cell's workload name denotes.
pub(crate) fn kind_of(spec: &CampaignSpec) -> Result<ChurnKind, CampaignError> {
    match spec.workload.as_str() {
        "churn-leak" => Ok(ChurnKind::Leak),
        "churn-uaf" => Ok(ChurnKind::UseAfterFree),
        "churn-obo" => Ok(ChurnKind::Overflow),
        other => Err(CampaignError(format!(
            "fleet cells run the churn family, not {other:?}"
        ))),
    }
}

/// Whether a churn cell's planted bug was reported: every planted leak
/// group for a leak cell, the planted corruption otherwise.
pub(crate) fn detected(kind: ChurnKind, truth: &GroundTruth, score: &ToolScore) -> bool {
    match kind {
        ChurnKind::Leak => score.leaks_found == truth.leak_groups.len(),
        ChurnKind::UseAfterFree | ChurnKind::Overflow => score.corruption_found,
    }
}

/// Translates fleet campaign cells into the shared-machine simulation's
/// process specs. The sampling seed is derived exactly as the campaign
/// cell's replay derives it (campaign seed keyed on the dedicated
/// [`SAMPLING_STREAM`]), so a fleet process and its phase-B cell make
/// identical per-allocation sampling decisions.
///
/// # Errors
///
/// Returns [`CampaignError`] if a cell names a non-churn workload.
pub fn fleet_process_specs(specs: &[CampaignSpec]) -> Result<Vec<ProcessSpec>, CampaignError> {
    specs
        .iter()
        .map(|spec| {
            Ok(ProcessSpec {
                kind: kind_of(spec)?,
                workload_seed: spec.workload_seed,
                sampling_ppm: spec.sampling_ppm,
                sampling_seed: SmRng::keyed(spec.seed, SAMPLING_STREAM).next_u64(),
            })
        })
        .collect()
}

/// One bug class's running sums across the fleet's phase-B cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetClassAgg {
    /// Cells running this class.
    pub cells: u64,
    /// Cells whose planted bug SafeMem reported.
    pub detected: u64,
    /// SafeMem false positives across this class's cells.
    pub false_positives: u64,
    /// Allocations that drew instrumentation, summed.
    pub sampled_allocs: u64,
    /// Allocations issued, summed.
    pub total_allocs: u64,
}

impl FleetClassAgg {
    /// Observed per-process detection probability `k/n`.
    #[must_use]
    pub fn observed(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.detected as f64 / self.cells as f64
        }
    }

    /// Whether the observed detection count sits inside the 6σ binomial
    /// band around the prediction: `|k − n·r| ≤ 6·√(n·r·(1−r))`.
    #[must_use]
    pub fn within_six_sigma(&self, rate: f64) -> bool {
        let n = self.cells as f64;
        let expected = n * rate;
        let sigma = (n * rate * (1.0 - rate)).sqrt();
        (self.detected as f64 - expected).abs() <= 6.0 * sigma
    }

    /// Fleet-level detection probability from the observed per-process
    /// fraction: `1 − (1 − k/n)^n`.
    #[must_use]
    pub fn fleet_observed(&self) -> f64 {
        1.0 - (1.0 - self.observed()).powf(self.cells as f64)
    }

    /// Fleet-level detection probability the sampling rate predicts:
    /// `1 − (1 − r)^n`.
    #[must_use]
    pub fn fleet_predicted(&self, rate: f64) -> f64 {
        1.0 - (1.0 - rate).powf(self.cells as f64)
    }
}

/// The fixed-size fold of every phase-B cell — the fleet analogue of
/// [`StreamAggregate`](crate::stream::StreamAggregate). Its size depends
/// only on the (three-entry) class list, never on the fleet size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetAgg {
    /// Cells folded.
    pub cells: u64,
    /// The fleet's sampling rate, parts-per-million.
    pub rate_ppm: u32,
    /// Per-class sums, in [`FLEET_WORKLOADS`] order.
    pub classes: [FleetClassAgg; 3],
    /// SafeMem false positives of any kind across the fleet.
    pub false_positives: u64,
    /// Hardware panics across the fleet (must stay zero under the
    /// correctable-only mix).
    pub hardware_panics: u64,
    /// Injected faults (bit flips + bursts) across the fleet.
    pub injected: u64,
    /// Corruption cells (uaf/obo) compared against the shared-machine run.
    pub ab_checked: u64,
    /// Corruption cells whose isolated detection matched the
    /// shared-machine detection.
    pub ab_agreed: u64,
}

impl FleetAgg {
    /// An empty aggregate at the given sampling rate.
    #[must_use]
    pub fn new(rate_ppm: u32) -> Self {
        FleetAgg {
            cells: 0,
            rate_ppm,
            classes: [FleetClassAgg::default(); 3],
            false_positives: 0,
            hardware_panics: 0,
            injected: 0,
            ab_checked: 0,
            ab_agreed: 0,
        }
    }

    /// The sampling rate as a fraction.
    #[must_use]
    pub fn rate(&self) -> f64 {
        f64::from(self.rate_ppm) / f64::from(PPM)
    }

    /// Folds one cell's SafeMem score in. `shared_detected` is the
    /// shared-machine (phase A) detection flag for the same process.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] if the cell names a non-churn workload.
    pub fn fold(
        &mut self,
        spec: &CampaignSpec,
        truth: &GroundTruth,
        score: &ToolScore,
        shared_detected: bool,
    ) -> Result<(), CampaignError> {
        let kind = kind_of(spec)?;
        let class = &mut self.classes[match kind {
            ChurnKind::Leak => 0,
            ChurnKind::UseAfterFree => 1,
            ChurnKind::Overflow => 2,
        }];
        let detected = detected(kind, truth, score);
        self.cells += 1;
        class.cells += 1;
        class.detected += u64::from(detected);
        class.false_positives += score.false_positives();
        if let Some(sampling) = &score.sampling {
            class.sampled_allocs += sampling.sampled_allocs;
            class.total_allocs += sampling.total_allocs;
        }
        self.false_positives += score.false_positives();
        self.hardware_panics += score.hardware_panics;
        self.injected += score.injected.data_bit_flips
            + score.injected.code_bit_flips
            + score.injected.multi_bit_bursts;
        if kind != ChurnKind::Leak {
            self.ab_checked += 1;
            self.ab_agreed += u64::from(detected == shared_detected);
        }
        Ok(())
    }

    /// The fleet acceptance verdict: zero SafeMem false positives, zero
    /// hardware panics, every observed per-class detection count inside the
    /// 6σ band, and shared-machine/isolated-cell agreement on every
    /// corruption cell.
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        self.false_positives == 0
            && self.hardware_panics == 0
            && self.ab_agreed == self.ab_checked
            && self
                .classes
                .iter()
                .all(|c| c.cells == 0 || c.within_six_sigma(self.rate()))
    }
}

/// A completed fleet campaign: the phase-A shared-machine report, the
/// phase-B fold, and the execution telemetry.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Fleet size.
    pub processes: u64,
    /// Requests each process served.
    pub requests: u64,
    /// Phase A: the shared-machine simulation's report.
    pub shared: FleetReport,
    /// Phase B: the per-cell campaign fold.
    pub agg: FleetAgg,
    /// Per-worker phase-B telemetry, sorted by worker index.
    pub workers: Vec<WorkerReport>,
    /// Worker threads actually spawned for phase B.
    pub threads: usize,
    /// Shards the phase-A fleet was partitioned into.
    pub shards: usize,
    /// Wall time for both phases.
    pub wall: Duration,
    /// Wall time of phase A alone (booting and running the shared-machine
    /// fleet); `wall - boot_wall` is the sharded record/replay phase.
    pub boot_wall: Duration,
}

/// Runs the two-phase fleet campaign over `specs` (from [`expand_fleet`]).
///
/// Phase A runs the whole fleet on shared machines, partitioned into
/// `shards` parallel shards, each owning its own machine sized to its
/// processes' disjoint frame windows ([`Fleet::run_sharded`]); one shard is
/// the single-machine reference. The merged shared-machine report — and
/// therefore the whole scorecard — is byte-identical for every shard
/// count; only the wall clock moves. Phase B runs the per-process campaign
/// cells on `threads` workers of the same executor as the matrix runner,
/// recording each unique trace once under [`TraceMode::Memoized`] (three
/// traces serve any fleet size), or loading it from `corpus` when one is
/// given (see
/// [`run_matrix_streamed_corpus`](crate::stream::run_matrix_streamed_corpus)),
/// and folding every cell into the fixed-size [`FleetAgg`]. The fleet
/// scorecard is byte-identical with or without a corpus.
///
/// # Errors
///
/// Returns [`CampaignError`] for an empty spec list, a zero shard count,
/// cells that disagree on requests or sampling rate, a non-churn workload,
/// the lowest-indexed cell failure, or stringified
/// [`CorpusError`](crate::corpus::CorpusError)s from corpus validation.
pub fn run_fleet_corpus(
    specs: &[CampaignSpec],
    threads: usize,
    shards: usize,
    mode: TraceMode,
    corpus: Option<&TraceCorpus>,
) -> Result<FleetOutcome, CampaignError> {
    if shards == 0 {
        return Err(CampaignError("a fleet needs at least one shard".into()));
    }
    let Some(first) = specs.first() else {
        return Err(CampaignError("a fleet needs at least one process".into()));
    };
    let requests = first.requests.unwrap_or(FLEET_REQUESTS);
    let rate_ppm = first.sampling_ppm;
    if specs
        .iter()
        .any(|s| s.requests.unwrap_or(FLEET_REQUESTS) != requests || s.sampling_ppm != rate_ppm)
    {
        return Err(CampaignError(
            "fleet cells must agree on requests and sampling rate".into(),
        ));
    }
    let start = Instant::now();

    // Phase A: every process on a shared machine behind the slot backend —
    // one machine per shard, merged in canonical pid order (one shard IS
    // the single-machine reference; the merged report is byte-identical at
    // every shard count thanks to the turn-boundary cache barrier).
    let process_specs = fleet_process_specs(specs)?;
    let shared = Fleet::run_sharded(
        &process_specs,
        FleetConfig {
            requests,
            ..FleetConfig::default()
        },
        shards,
    );
    let boot_wall = start.elapsed();

    // Phase B: the cells on the shared executor, each replaying SafeMem
    // alone and folding into the fixed-size aggregate.
    let agg = Mutex::new(FleetAgg::new(rate_ppm));
    let workers = execute(
        specs,
        threads,
        mode,
        corpus,
        replay_safemem_columnar_with,
        |index, (truth, score)| {
            agg.lock().expect("no panics hold the aggregate lock").fold(
                &specs[index],
                &truth,
                &score,
                shared.detected[index],
            )
        },
    )?;

    Ok(FleetOutcome {
        processes: specs.len() as u64,
        requests,
        shared,
        agg: agg.into_inner().expect("scope joined all workers"),
        threads: workers.len(),
        workers,
        shards: shards.min(specs.len()),
        wall: start.elapsed(),
        boot_wall,
    })
}

/// Renders the fleet scorecard: the shared-machine summary, the per-class
/// observed-vs-predicted table with 6σ bands, the fleet-level detection
/// probabilities, the A/B cross-check, and the greppable verdict line.
/// Byte-stable: every number is a deterministic integer sum or a
/// fixed-precision function of one.
#[must_use]
pub fn render_fleet(outcome: &FleetOutcome) -> String {
    let agg = &outcome.agg;
    let shared = &outcome.shared;
    let rate = agg.rate();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet: {} processes x {} requests, sampling rate {:.4}",
        outcome.processes, outcome.requests, rate
    );
    // Deliberately shard-count-free: the scorecard must be byte-identical
    // no matter how phase A was partitioned.
    let _ = writeln!(
        out,
        "  phase A (shared-machine fleet): phys={} B machine_cycles={} process_cycles={} page_faults={} swap_in={} swap_out={} ecc_verified={} detections={} FPs={}",
        shared.shared_phys_bytes,
        shared.machine_cycles,
        shared.process_cycles,
        shared.page_faults,
        shared.swap_ins,
        shared.swap_outs,
        shared.ecc.groups_verified,
        shared.detections(),
        shared.false_positives()
    );
    let _ = writeln!(
        out,
        "  phase B (isolated campaign cells, harsh mix): {} cells, {} injected faults, {} hardware panics",
        agg.cells, agg.injected, agg.hardware_panics
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>6} {:>9} {:>9} {:>10} {:>8} {:>22}",
        "class", "procs", "detected", "observed", "predicted", "6sigma", "sampled-allocs"
    );
    for (name, class) in FLEET_WORKLOADS.iter().zip(&agg.classes) {
        if class.cells == 0 {
            continue;
        }
        let sampled = format!("{}/{}", class.sampled_allocs, class.total_allocs);
        let _ = writeln!(
            out,
            "  {:<12} {:>6} {:>9} {:>9.4} {:>10.4} {:>8} {:>22}",
            name,
            class.cells,
            class.detected,
            class.observed(),
            rate,
            if class.within_six_sigma(rate) {
                "ok"
            } else {
                "OUT"
            },
            sampled
        );
    }
    let _ = writeln!(
        out,
        "  fleet-level detection probability (any process catches its bug), predicted 1-(1-r)^n vs observed 1-(1-k/n)^n:"
    );
    for (name, class) in FLEET_WORKLOADS.iter().zip(&agg.classes) {
        if class.cells == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "    {:<12} predicted {:.4} observed {:.4}",
            name,
            class.fleet_predicted(rate),
            class.fleet_observed()
        );
    }
    let _ = writeln!(
        out,
        "  A/B cross-check (shared-machine vs isolated-cell detection, corruption classes): {}/{} agree",
        agg.ab_agreed, agg.ab_checked
    );
    if agg.invariants_hold() {
        let _ = writeln!(
            out,
            "fleet invariant (safemem: zero false positives across {} processes): OK",
            outcome.processes
        );
    } else {
        let _ = writeln!(
            out,
            "fleet invariant (safemem: zero false positives across {} processes): VIOLATED ({} FPs, {} panics, A/B {}/{}, 6sigma {})",
            outcome.processes,
            agg.false_positives,
            agg.hardware_panics,
            agg.ab_agreed,
            agg.ab_checked,
            if agg
                .classes
                .iter()
                .all(|c| c.cells == 0 || c.within_six_sigma(rate))
            {
                "ok"
            } else {
                "OUT"
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FLEET_RATE_PPM;

    #[test]
    fn expand_fleet_cycles_the_churn_family() {
        let specs = expand_fleet(7, 100, None).expect("valid fleet");
        assert_eq!(specs.len(), 7);
        assert_eq!(specs[0].workload, "churn-leak");
        assert_eq!(specs[1].workload, "churn-uaf");
        assert_eq!(specs[2].workload, "churn-obo");
        assert_eq!(specs[3].workload, "churn-leak");
        assert_eq!(specs[6].seed, 106);
        for spec in &specs {
            assert_eq!(spec.preset, "fleet");
            assert_eq!(spec.sampling_ppm, FLEET_RATE_PPM);
            assert_eq!(spec.requests, Some(FLEET_REQUESTS));
        }
        assert!(expand_fleet(0, 0, None).is_err(), "empty fleet");
    }

    #[test]
    fn process_specs_mirror_the_campaign_sampling_derivation() {
        let specs = expand_fleet(3, 9, Some(48)).expect("valid fleet");
        let procs = fleet_process_specs(&specs).expect("churn cells");
        assert_eq!(procs.len(), 3);
        assert_eq!(procs[0].kind, ChurnKind::Leak);
        assert_eq!(procs[1].kind, ChurnKind::UseAfterFree);
        assert_eq!(procs[2].kind, ChurnKind::Overflow);
        for (proc, spec) in procs.iter().zip(&specs) {
            assert_eq!(
                proc.sampling_seed,
                SmRng::keyed(spec.seed, SAMPLING_STREAM).next_u64(),
                "same stream the oracle's build_tool keys"
            );
        }
        let mut alien = specs;
        alien[0].workload = "tar".into();
        assert!(fleet_process_specs(&alien).is_err());
    }
}
