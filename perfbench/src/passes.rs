//! The measured passes (the public entry points `safemem-campaign` calls,
//! on the plan's worker threads) and the sequential check pass that
//! verifies them cell by cell.

use std::time::{Duration, Instant};

use safemem_core::PPM;
use safemem_faultinject::{
    fleet_process_specs, render_fleet, render_fleet_sweep, replay_panel_columnar_with,
    replay_safemem_columnar_with, run_fleet_corpus, run_fleet_sweep, run_matrix_streamed_corpus,
    CampaignError, CampaignResult, CampaignSpec, FleetAgg, FleetOutcome, StreamAggregate,
    SweepOutcome, ToolScore, TraceMode, WorkerReport,
};
use safemem_fleet::{Fleet, FleetReport};
use safemem_workloads::ColumnarReplayer;

use crate::host::process_cpu;
use crate::plan::{Kind, Plan, Traces};

/// One workload run through the public entry points.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Host wall time of the run.
    pub wall: Duration,
    /// Process CPU time (all threads) the run used.
    pub cpu: Duration,
    /// Cells the run finished: campaign cells; on the fleet, one per
    /// process plus one per sweep (rate, pid) cell.
    pub cells: u64,
    /// The deterministic scorecard the run rendered.
    pub scorecard: String,
    /// Whether the preset's aggregate invariants held.
    pub invariants_hold: bool,
    /// `1 - busy / (threads x wall)` of the campaign worker pool (the
    /// fleet's phase-B pool; phase A and the sweep report no busy time).
    pub pool_idle_frac: f64,
}

fn campaign(e: CampaignError) -> String {
    e.0
}

/// Share of the pool's thread-time its workers spent idle.
fn idle_frac(workers: &[WorkerReport], threads: usize, wall: Duration) -> f64 {
    let capacity = threads as f64 * wall.as_secs_f64();
    if capacity <= 0.0 {
        return 0.0;
    }
    let busy: f64 = workers.iter().map(|w| w.busy.as_secs_f64()).sum();
    (1.0 - busy / capacity).max(0.0)
}

/// Runs the workload once through the public entry points on
/// `plan.threads` workers (and, on the fleet, as many phase-A shards).
///
/// # Errors
///
/// Returns a campaign error or a `/proc` read failure.
pub fn measured(plan: &Plan, specs: &[CampaignSpec]) -> Result<Measured, String> {
    let threads = plan.threads;
    let cpu0 = process_cpu()?;
    let start = Instant::now();
    let mut run = match plan.kind {
        Kind::Harsh | Kind::Frontier => {
            let report = run_matrix_streamed_corpus(
                specs,
                threads,
                TraceMode::Memoized,
                false,
                StreamAggregate::with_frontier(specs),
                None,
            )
            .map_err(campaign)?;
            let aggregate = &report.aggregate;
            Measured {
                wall: Duration::ZERO,
                cpu: Duration::ZERO,
                cells: aggregate.campaigns() as u64,
                scorecard: aggregate.render(),
                invariants_hold: if plan.kind == Kind::Harsh {
                    aggregate.invariants_hold()
                } else {
                    aggregate.frontier_invariants_hold()
                },
                pool_idle_frac: idle_frac(&report.workers, report.threads, report.wall),
            }
        }
        Kind::Fleet => {
            let outcome = run_fleet_corpus(specs, threads, threads, TraceMode::Memoized, None)
                .map_err(campaign)?;
            let sweep = run_fleet_sweep(&plan.sweep_config(), threads, None).map_err(campaign)?;
            Measured {
                wall: Duration::ZERO,
                cpu: Duration::ZERO,
                cells: outcome.processes + sweep.cells,
                scorecard: render_fleet(&outcome) + &render_fleet_sweep(&sweep),
                invariants_hold: outcome.agg.invariants_hold() && sweep.invariants_hold(),
                pool_idle_frac: idle_frac(
                    &outcome.workers,
                    outcome.threads,
                    outcome.wall.saturating_sub(outcome.boot_wall),
                ),
            }
        }
    };
    run.wall = start.elapsed();
    run.cpu = process_cpu()?.saturating_sub(cpu0);
    Ok(run)
}

/// The sequential reference run: every cell replayed one at a time through
/// the public oracle, each checked against its preset's invariant.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The scorecard folded from the per-cell results; it must equal the
    /// measured passes' scorecard byte for byte.
    pub scorecard: String,
    /// Cells checked (counted as [`Measured::cells`] counts them).
    pub cells: u64,
    /// Cells that errored or broke their preset's invariant.
    pub failed: u64,
    /// Simulated CPU overhead of always-on SafeMem over the `none` tool,
    /// percent.
    pub sim_overhead_pct: f64,
    /// Per cell, the oracle's score of each tool it replays (the whole
    /// panel on the matrix workloads, SafeMem alone on the fleet).
    pub scores: Vec<Vec<ToolScore>>,
    /// Trace ops in each cell's trace.
    pub trace_ops: Vec<u64>,
    /// The fleet's single-shard phase-A report.
    pub shared: Option<FleetReport>,
    /// The fleet's single-thread sweep scorecard.
    pub sweep: Option<String>,
}

/// Whether one matrix cell upholds its preset's invariant — per cell, what
/// `StreamAggregate::invariants_hold` (harsh) and
/// `frontier_invariants_hold` (frontier) check in aggregate.
fn cell_holds(kind: Kind, result: &CampaignResult) -> bool {
    match kind {
        Kind::Frontier => {
            let no_false_positives = result
                .tool("safemem")
                .is_some_and(|s| s.false_positives() == 0);
            no_false_positives
                && (result.spec.sampling_ppm != PPM || result.harsh_invariant_holds())
        }
        _ => {
            result.harsh_invariant_holds()
                && (result.truth.markers.total() == 0 || result.survival_invariant_holds())
        }
    }
}

/// Simulated overhead, percent, of SafeMem's cycles over the `none` tool's,
/// summed over `results`.
fn overhead_pct<'a>(results: impl Iterator<Item = &'a [ToolScore]>) -> f64 {
    let (mut safemem, mut none) = (0u64, 0u64);
    for tools in results {
        for t in tools {
            match t.tool {
                "safemem" => safemem += t.cpu_cycles,
                "none" => none += t.cpu_cycles,
                _ => {}
            }
        }
    }
    if none == 0 {
        0.0
    } else {
        (safemem as f64 - none as f64) / none as f64 * 100.0
    }
}

/// Replays every cell sequentially through the public oracle and checks
/// each against the preset's invariant.
///
/// # Errors
///
/// Returns a recording error; a cell that fails to replay is counted as
/// failed instead.
pub fn check(plan: &Plan, specs: &[CampaignSpec]) -> Result<Checked, String> {
    match plan.kind {
        Kind::Harsh | Kind::Frontier => check_matrix(plan.kind, specs),
        Kind::Fleet => check_fleet(plan, specs),
    }
}

fn check_matrix(kind: Kind, specs: &[CampaignSpec]) -> Result<Checked, String> {
    let traces = Traces::record(specs).map_err(campaign)?;
    let mut aggregate = StreamAggregate::with_frontier(specs);
    let mut replayer = ColumnarReplayer::new();
    let mut failed = 0;
    let mut scores = Vec::with_capacity(specs.len());
    let mut trace_ops = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let trace = traces.of(i);
        trace_ops.push(trace.columnar.len() as u64);
        match replay_panel_columnar_with(spec, trace, &mut replayer) {
            Ok(result) => {
                failed += u64::from(!cell_holds(kind, &result));
                aggregate.fold(&result);
                scores.push(result.tools);
            }
            Err(_) => {
                failed += 1;
                scores.push(Vec::new());
            }
        }
    }
    // Always-on cells only: every harsh cell, the frontier's 1.0 rung.
    let sim_overhead_pct = overhead_pct(
        specs
            .iter()
            .zip(&scores)
            .filter(|(spec, _)| spec.sampling_ppm == PPM)
            .map(|(_, tools)| tools.as_slice()),
    );
    Ok(Checked {
        scorecard: aggregate.render(),
        cells: specs.len() as u64,
        failed,
        sim_overhead_pct,
        scores,
        trace_ops,
        shared: None,
        sweep: None,
    })
}

/// Whether fleet cell `spec` detected its planted bug (as `FleetAgg::fold`
/// decides it).
fn fleet_detected(spec: &CampaignSpec, leak_groups: usize, score: &ToolScore) -> bool {
    if spec.workload == "churn-leak" {
        score.leaks_found == leak_groups
    } else {
        score.corruption_found
    }
}

fn check_fleet(plan: &Plan, specs: &[CampaignSpec]) -> Result<Checked, String> {
    let processes = fleet_process_specs(specs).map_err(campaign)?;
    let config = plan.fleet_config();
    let shared = Fleet::boot(&processes, config).run();
    let traces = Traces::record(specs).map_err(campaign)?;
    let rate_ppm = specs.first().map_or(0, |s| s.sampling_ppm);
    let mut agg = FleetAgg::new(rate_ppm);
    let mut replayer = ColumnarReplayer::new();
    let mut cell_failed = vec![false; specs.len()];
    let mut scores = Vec::with_capacity(specs.len());
    let mut trace_ops = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let trace = traces.of(i);
        trace_ops.push(trace.columnar.len() as u64);
        let shared_detected = shared.detected.get(i).copied().unwrap_or(false);
        let folded =
            replay_safemem_columnar_with(spec, trace, &mut replayer).and_then(|(truth, score)| {
                let detected = fleet_detected(spec, truth.leak_groups.len(), &score);
                let agrees = spec.workload == "churn-leak" || detected == shared_detected;
                cell_failed[i] =
                    score.false_positives() > 0 || score.hardware_panics > 0 || !agrees;
                agg.fold(spec, &truth, &score, shared_detected)?;
                Ok(score)
            });
        match folded {
            Ok(score) => scores.push(vec![score]),
            Err(_) => {
                cell_failed[i] = true;
                scores.push(Vec::new());
            }
        }
    }
    // The 6-sigma band is a property of a whole class: a class outside it
    // fails every one of its cells.
    let rate = agg.rate();
    for (class, name) in agg
        .classes
        .iter()
        .zip(safemem_faultinject::spec::FLEET_WORKLOADS)
    {
        if class.cells > 0 && !class.within_six_sigma(rate) {
            for (failed, spec) in cell_failed.iter_mut().zip(specs) {
                *failed |= spec.workload == *name;
            }
        }
    }
    let mut failed = cell_failed.iter().filter(|&&f| f).count() as u64;

    let sweep = run_fleet_sweep(&plan.sweep_config(), 1, None).map_err(campaign)?;
    failed += sweep_failed_cells(&sweep);
    let sweep_cells = sweep.cells;

    let outcome = FleetOutcome {
        processes: specs.len() as u64,
        requests: config.requests,
        shared: shared.clone(),
        agg,
        workers: Vec::new(),
        threads: 1,
        shards: 1,
        wall: Duration::ZERO,
        boot_wall: Duration::ZERO,
    };

    // The fleet has no `none` tool of its own: replay the first cell of each
    // churn class through the full panel with SafeMem always on.
    let mut replayer = ColumnarReplayer::new();
    let mut panel = Vec::new();
    for (i, spec) in specs.iter().enumerate().take(3) {
        let mut always_on = spec.clone();
        always_on.sampling_ppm = PPM;
        let result = replay_panel_columnar_with(&always_on, traces.of(i), &mut replayer)
            .map_err(campaign)?;
        panel.push(result.tools);
    }

    let sweep = render_fleet_sweep(&sweep);
    Ok(Checked {
        scorecard: render_fleet(&outcome) + &sweep,
        cells: outcome.processes + sweep_cells,
        failed,
        sim_overhead_pct: overhead_pct(panel.iter().map(Vec::as_slice)),
        scores,
        trace_ops,
        shared: Some(shared),
        sweep: Some(sweep),
    })
}

/// Sweep cells covered by a failing grid point: a point's cells are the
/// first `processes` pids of its rate's stripe, so a rate with any failing
/// point fails its largest failing prefix.
fn sweep_failed_cells(sweep: &SweepOutcome) -> u64 {
    let mut failed = 0;
    let mut rates: Vec<u32> = sweep.points.iter().map(|p| p.rate_ppm).collect();
    rates.dedup();
    for rate in rates {
        failed += sweep
            .points
            .iter()
            .filter(|p| p.rate_ppm == rate && !(p.false_positives == 0 && p.in_band))
            .map(|p| p.processes)
            .max()
            .unwrap_or(0);
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_false_positive_fails_its_cell() {
        let mut spec = CampaignSpec::harsh("tar", 0);
        spec.requests = Some(24);
        let mut result = safemem_faultinject::run_campaign(&spec).expect("campaign runs");
        assert!(cell_holds(Kind::Harsh, &result));
        result.tools[0].false_leaks = 1;
        assert!(!cell_holds(Kind::Harsh, &result));
        result.spec.sampling_ppm = 100_000;
        assert!(
            !cell_holds(Kind::Frontier, &result),
            "no rung may report a false positive"
        );
    }

    #[test]
    fn idle_share_of_a_half_busy_pool() {
        let worker = |busy_ms| WorkerReport {
            worker: 0,
            campaigns: 1,
            traces_recorded: 0,
            busy: Duration::from_millis(busy_ms),
            injection_events: 0,
        };
        let workers = [worker(100), worker(100)];
        let idle = idle_frac(&workers, 2, Duration::from_millis(400));
        assert!((idle - 0.75).abs() < 1e-12);
        assert_eq!(idle_frac(&workers, 2, Duration::ZERO), 0.0);
    }
}
