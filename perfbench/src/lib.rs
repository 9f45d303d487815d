//! The SafeMem campaign benchmark: end-to-end metrics from untraced runs of
//! the public campaign entry points, per-layer metrics from a traced pass
//! through the `MemTool` and `MachineBackend` seams, and correctness checks
//! on every run. See `README.md` beside this crate for the metric catalogue.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod host;
pub mod passes;
pub mod plan;
pub mod profile;
pub mod rebuild;
pub mod stats;

use std::time::Instant;

use safemem_faultinject::corpus_checksum;

use crate::calibrate::Reference;
use crate::host::peak_rss_mib;
use crate::passes::{check, measured, Checked, Measured};
use crate::plan::{set_up, Kind, Plan};
use crate::profile::{Layer, Profile};
use crate::rebuild::{mismatches, rebuild, Rebuild, ToolRun};
use crate::stats::{interquartile_mean, median, percentile};

/// How long and how deeply one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Measured passes repeat until this much host time has passed (at
    /// least two run: the untimed warm-up and one timed pass).
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// Set-ups timed before each timed pass; `setup_s` is the interquartile
/// mean of all of them.
const SETUPS_PER_PASS: usize = 16;

/// Reference jobs timed before each timed pass.
const JOBS_PER_PASS: usize = 5;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The end-to-end metrics, with units, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("cells_per_ref_s", "cells/ref-s"),
    ("cpu_ref_s", "ref-s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_overhead_pct", "%"),
];

/// Everything one workload run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every invariant, determinism and identity check passed.
    pub correct: bool,
    /// Cells attempted over every pass of the run.
    pub attempted: u64,
    /// Cells that errored, broke their preset's invariant, or disagreed
    /// with the reference.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The end-to-end host times before scaling to reference seconds, and
    /// the reference job's host time (untraced runs only).
    pub host_times: Vec<Metric>,
    /// Deterministic work counters and the scorecard digest, which must
    /// repeat exactly for the same seed and commit.
    pub work: Vec<(&'static str, u64)>,
    /// Host wall time of each measured pass, seconds.
    pub pass_walls: Vec<f64>,
    /// What went wrong, one line each (empty when correct).
    pub problems: Vec<String>,
}

impl Outcome {
    /// `failed / attempted`.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The work counters as one JSON object.
    #[must_use]
    pub fn work_json(&self) -> String {
        let fields: Vec<String> = self
            .work
            .iter()
            .map(|(name, value)| {
                if *name == "scorecard_digest" {
                    format!("\"{name}\": \"{value:016x}\"")
                } else {
                    format!("\"{name}\": {value}")
                }
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // JSON has no NaN or infinity; an undefined ratio reads as 0.
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name, value, unit }
}

/// Runs one workload: set-up, measured passes for `options.seconds`, the
/// sequential check pass, and with `options.trace` the traced pass.
///
/// # Errors
///
/// Returns a message when the run cannot measure at all: the plan does not
/// expand, a trace cannot be recorded, or `/proc` is unreadable.
pub fn run(plan: &Plan, options: &Options) -> Result<Outcome, String> {
    let specs = plan.specs().map_err(|e| e.0)?;
    let mut problems = Vec::new();

    let mut passes: Vec<Measured> = Vec::new();
    let mut errored_passes = 0u64;
    let mut setups = Vec::new();
    let mut reference = Reference::new();
    let start = Instant::now();
    // Pass 0 warms caches and the allocator up; it is checked like every
    // pass but timed by none of the metrics.
    while passes.len() < 2 || start.elapsed().as_secs_f64() < options.seconds {
        if !passes.is_empty() {
            reference.sample(JOBS_PER_PASS);
            for _ in 0..SETUPS_PER_PASS {
                setups.push(set_up(plan).map_err(|e| e.0)?.as_secs_f64());
            }
        }
        match measured(plan, &specs) {
            Ok(pass) => passes.push(pass),
            Err(e) => {
                problems.push(format!("measured pass failed: {e}"));
                errored_passes += 1;
                break;
            }
        }
    }
    // The reference tables stay resident from before the first pass.
    let peak_rss = peak_rss_mib()? - calibrate::TABLE_BYTES as f64 / (1 << 20) as f64;
    let timed = passes.get(1..).unwrap_or_default();

    let checked = check(plan, &specs)?;
    let runs = passes.len() as u64 + errored_passes + 1;
    let mut attempted = checked.cells * runs;
    let mut failed = checked.failed * runs + checked.cells * errored_passes;
    if checked.failed > 0 {
        problems.push(format!(
            "{} of {} cells broke the {} invariant",
            checked.failed, checked.cells, plan.kind
        ));
    }
    for (k, pass) in passes.iter().enumerate() {
        if pass.scorecard != checked.scorecard {
            failed += checked.cells;
            problems.push(format!(
                "pass {k} on {} threads rendered a different scorecard than the sequential \
                 one-thread reference",
                plan.threads
            ));
        }
        if !pass.invariants_hold {
            problems.push(format!("pass {k} broke the {} invariant", plan.kind));
        }
    }

    let work = work_counters(plan, &checked);
    let mut host_times = Vec::new();
    let metrics = if options.trace {
        let untraced = rebuild(plan, &specs, false)?;
        profile::start();
        let traced = rebuild(plan, &specs, true);
        let profile = profile::stop();
        let traced = traced?;
        attempted += 2 * specs.len() as u64;
        let bad = mismatches(
            &checked.scores,
            checked.shared.as_ref(),
            checked.sweep.as_deref(),
            &untraced,
            &traced,
        );
        if bad > 0 {
            failed += bad;
            problems.push(format!(
                "{bad} cells of the traced pass disagree with the untraced pass or the oracle"
            ));
        }
        per_layer(plan, &checked, timed, &untraced, &traced, &profile)
    } else {
        let cells: u64 = timed.iter().map(|p| p.cells).sum();
        let wall: f64 = timed.iter().map(|p| p.wall.as_secs_f64()).sum();
        let cpu = timed.iter().map(|p| p.cpu.as_secs_f64()).sum::<f64>() / timed.len() as f64;
        let setup = interquartile_mean(&setups).unwrap_or(0.0);
        host_times = vec![
            metric("host_cells_per_s", cells as f64 / wall, "cells/s"),
            metric("host_cpu_s", cpu, "s"),
            metric("host_setup_s", setup, "s"),
            metric("ref_job_ms", reference.job_s().unwrap_or(0.0) * 1e3, "ms"),
        ];
        let to_ref = |host_s: f64| reference.to_ref(host_s).unwrap_or(0.0);
        let values = [
            cells as f64 / to_ref(wall),
            to_ref(cpu),
            to_ref(setup),
            peak_rss,
            checked.sim_overhead_pct,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| metric(name, value, unit))
            .collect()
    };

    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        host_times,
        work,
        pass_walls: passes.iter().map(|p| p.wall.as_secs_f64()).collect(),
        problems,
    })
}

/// Sum of `f` over every tool run of every rebuilt cell.
fn sum_runs(rebuild: &Rebuild, f: impl Fn(&ToolRun) -> u64) -> u64 {
    rebuild.cells.iter().flatten().map(f).sum()
}

/// Injection events of one run, as `WorkerReport::injection_events` counts
/// them.
fn injection_events(log: &safemem_faultinject::InjectionLog) -> u64 {
    log.data_bit_flips
        + log.code_bit_flips
        + log.multi_bit_bursts
        + log.forced_scrub_cycles
        + log.dma_transfers
        + log.dma_faults
}

/// Deterministic counts of the work one pass does, from the oracle's
/// scores: they repeat exactly for a seed, so a change in host time with
/// equal counters is host noise or host speed, never a change of work.
fn work_counters(plan: &Plan, checked: &Checked) -> Vec<(&'static str, u64)> {
    let scores = checked.scores.iter().flatten();
    let ops: u64 = checked
        .scores
        .iter()
        .zip(&checked.trace_ops)
        .map(|(tools, ops)| tools.len() as u64 * ops)
        .sum();
    let mut work = vec![
        ("scorecard_digest", corpus_checksum(&checked.scorecard)),
        ("cells", checked.cells),
        ("ops_replayed", ops),
        (
            "ecc_groups_verified",
            scores.clone().map(|s| s.controller.groups_verified).sum(),
        ),
        (
            "ecc_groups_encoded",
            scores.clone().map(|s| s.controller.groups_encoded).sum(),
        ),
        ("sim_cycles", scores.clone().map(|s| s.cpu_cycles).sum()),
        (
            "injection_events",
            scores.map(|s| injection_events(&s.injected)).sum(),
        ),
    ];
    if let Some(shared) = &checked.shared {
        let requests = plan.fleet_config().requests;
        work.push(("fleet_turns", shared.processes * (requests + 1)));
        work.push(("fleet_machine_cycles", shared.machine_cycles));
        work.push(("fleet_ecc_groups_verified", shared.ecc.groups_verified));
    }
    work
}

/// The per-layer metrics of a traced run.
fn per_layer(
    plan: &Plan,
    checked: &Checked,
    passes: &[Measured],
    untraced: &Rebuild,
    traced: &Rebuild,
    profile: &Profile,
) -> Vec<Metric> {
    let count = |v: u64| v as f64;
    let ops: u64 = traced
        .cells
        .iter()
        .zip(&checked.trace_ops)
        .map(|(runs, ops)| runs.len() as u64 * ops)
        .sum();
    let cell_ms = &traced.cell_ms;
    let cell_pct = |p| percentile(cell_ms, p).or_else(|| cell_ms.first().copied());
    let idle: Vec<f64> = passes.iter().map(|p| p.pool_idle_frac).collect();
    let sampling = traced.cells.iter().flatten().filter_map(|r| r.sampling);
    let (sampled, allocs) = sampling.fold((0, 0), |(s, t), x| {
        (s + x.sampled_allocs, t + x.total_allocs)
    });
    let level = |f: fn(&safemem_cache::LevelStats) -> u64| {
        sum_runs(traced, |r| r.levels.iter().map(f).sum())
    };
    let (hits, misses) = (level(|l| l.hits), level(|l| l.misses));
    let machine_ms: f64 = Layer::MACHINE.iter().map(|&l| profile.self_ms(l)).sum();
    let machine_calls: u64 = Layer::MACHINE.iter().map(|&l| profile.calls(l)).sum();
    let fleet_run_ms = profile.total_ms(Layer::FleetRun);
    let turns = traced
        .shared
        .as_ref()
        .map_or(0, |s| s.processes * (plan.fleet_config().requests + 1));
    let traced_ms = traced.wall.as_secs_f64() * 1e3;

    vec![
        metric("workloads.record_ms", profile.self_ms(Layer::Record), "ms"),
        metric(
            "workloads.replay_self_ms",
            profile.self_ms(Layer::Cell),
            "ms",
        ),
        metric("workloads.traces", count(traced.traces), "count"),
        metric("workloads.ops_replayed", count(ops), "count"),
        metric("faultinject.cells", count(cell_ms.len() as u64), "count"),
        metric("faultinject.cell_p50_ms", cell_pct(50).unwrap_or(0.0), "ms"),
        metric("faultinject.cell_p90_ms", cell_pct(90).unwrap_or(0.0), "ms"),
        metric("faultinject.build_ms", profile.self_ms(Layer::Build), "ms"),
        metric(
            "faultinject.inject_self_ms",
            profile.self_ms(Layer::Inject),
            "ms",
        ),
        metric(
            "faultinject.injection_events",
            count(sum_runs(traced, |r| injection_events(&r.injected))),
            "count",
        ),
        metric(
            "faultinject.pool_idle_frac",
            median(&idle).unwrap_or(0.0),
            "ratio",
        ),
        metric(
            "core.safemem_self_ms",
            profile.self_ms(Layer::SafeMem),
            "ms",
        ),
        metric("core.null_self_ms", profile.self_ms(Layer::Null), "ms"),
        metric("core.sampled_frac", sampled as f64 / allocs as f64, "ratio"),
        metric(
            "baselines.purify_self_ms",
            profile.self_ms(Layer::Purify),
            "ms",
        ),
        metric(
            "baselines.memcheck_self_ms",
            profile.self_ms(Layer::Memcheck),
            "ms",
        ),
        metric(
            "baselines.pageguard_self_ms",
            profile.self_ms(Layer::PageGuard),
            "ms",
        ),
        metric(
            "os.watch_calls",
            count(sum_runs(traced, |r| r.os.watch_calls)),
            "count",
        ),
        metric(
            "os.disable_calls",
            count(sum_runs(traced, |r| r.os.disable_calls)),
            "count",
        ),
        metric(
            "os.ecc_faults_delivered",
            count(sum_runs(traced, |r| r.os.ecc_faults_delivered)),
            "count",
        ),
        metric(
            "os.scrub_cycles",
            count(sum_runs(traced, |r| r.os.scrub_cycles)),
            "count",
        ),
        metric(
            "os.page_faults",
            count(sum_runs(traced, |r| r.page_faults)),
            "count",
        ),
        metric(
            "os.swap_outs",
            count(sum_runs(traced, |r| r.swap_outs)),
            "count",
        ),
        metric("machine.self_ms", machine_ms, "ms"),
        metric("machine.calls", count(machine_calls), "count"),
        metric("machine.access_ms", profile.self_ms(Layer::Access), "ms"),
        metric("machine.flush_ms", profile.self_ms(Layer::Flush), "ms"),
        metric(
            "machine.uncached_ms",
            profile.self_ms(Layer::Uncached),
            "ms",
        ),
        metric("machine.scrub_ms", profile.self_ms(Layer::Scrub), "ms"),
        metric(
            "machine.sim_cycles",
            count(sum_runs(traced, |r| r.machine_cycles)),
            "cycles",
        ),
        metric("cache.hits", count(hits), "count"),
        metric("cache.misses", count(misses), "count"),
        metric(
            "cache.hit_frac",
            hits as f64 / (hits + misses) as f64,
            "ratio",
        ),
        metric("cache.evictions", count(level(|l| l.evictions)), "count"),
        metric(
            "ecc.groups_verified",
            count(sum_runs(traced, |r| r.controller.groups_verified)),
            "count",
        ),
        metric(
            "ecc.groups_encoded",
            count(sum_runs(traced, |r| r.controller.groups_encoded)),
            "count",
        ),
        metric(
            "ecc.scrubbed_groups",
            count(sum_runs(traced, |r| r.controller.scrubbed_groups)),
            "count",
        ),
        metric(
            "ecc.uncorrectable",
            count(sum_runs(traced, |r| r.controller.uncorrectable)),
            "count",
        ),
        metric("fleet.boot_ms", profile.total_ms(Layer::FleetBoot), "ms"),
        metric("fleet.run_ms", fleet_run_ms, "ms"),
        metric(
            "fleet.phase_b_ms",
            if plan.kind == Kind::Fleet {
                traced.phase_b.as_secs_f64() * 1e3
            } else {
                0.0
            },
            "ms",
        ),
        metric("fleet.sweep_ms", profile.total_ms(Layer::Sweep), "ms"),
        metric("fleet.turns", count(turns), "count"),
        metric("fleet.turn_us", fleet_run_ms * 1e3 / turns as f64, "us"),
        metric(
            "fleet.machine_cycles",
            count(traced.shared.as_ref().map_or(0, |s| s.machine_cycles)),
            "cycles",
        ),
        metric(
            "trace.overhead_pct",
            (traced.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0) * 100.0,
            "%",
        ),
        metric(
            "trace.coverage_frac",
            profile.attributed_ms() / traced_ms,
            "ratio",
        ),
    ]
}
