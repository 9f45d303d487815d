//! The traced pass: every cell rebuilt from public constructors, with the
//! timing wrappers of [`crate::profile`] inserted at the `MemTool` and
//! `MachineBackend` seams.
//!
//! The oracle's `build_os`/`build_tool` are private, so [`run_tool`]
//! repeats them from the same public pieces in the same order. The same
//! code runs untraced (no wrappers, spans inert) to give the traced pass
//! its untraced twin: the two must agree on every counter, and both must
//! agree with the oracle's own scores, cell for cell.

use std::time::{Duration, Instant};

use safemem_alloc::HeapStats;
use safemem_baselines::{Memcheck, PageGuard, Purify};
use safemem_cache::LevelStats;
use safemem_core::{MemTool, NullTool, SafeMem, SamplingPlan, SamplingSummary};
use safemem_ecc::ControllerStats;
use safemem_faultinject::{
    fleet_process_specs, render_fleet_sweep, run_fleet_sweep, CampaignSpec, InjectionLog, Injector,
    RecordedTrace, SmRng, ToolScore, PANEL, SAMPLING_STREAM,
};
use safemem_fleet::{Fleet, FleetReport};
use safemem_machine::{Machine, MachineBackend};
use safemem_os::{Os, OsConfig, OsStats, STATIC_BASE};
use safemem_workloads::ColumnarReplayer;

use crate::plan::{Kind, Plan, Traces};
use crate::profile::{span, Layer, Timed, TimedBackend};

/// Everything one tool's replay of one cell produced that the benchmark
/// reads: simulated time, and the counters of every layer below the tool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolRun {
    /// Tool name.
    pub tool: &'static str,
    /// Simulated CPU cycles charged to the process.
    pub cpu_cycles: u64,
    /// Simulated cycles on the machine clock (CPU, I/O wait, background).
    pub machine_cycles: u64,
    /// ECC controller counters.
    pub controller: ControllerStats,
    /// OS event counters.
    pub os: OsStats,
    /// Page faults taken.
    pub page_faults: u64,
    /// Pages swapped out.
    pub swap_outs: u64,
    /// Per cache level counters.
    pub levels: Vec<LevelStats>,
    /// What the injector did.
    pub injected: InjectionLog,
    /// Allocator statistics.
    pub heap: HeapStats,
    /// Sampling accounting (SafeMem only).
    pub sampling: Option<SamplingSummary>,
}

impl ToolRun {
    /// Whether this run reproduces the oracle's score of the same tool on
    /// the same cell in everything the score records about the simulation.
    #[must_use]
    pub fn matches(&self, score: &ToolScore) -> bool {
        self.tool == score.tool
            && self.cpu_cycles == score.cpu_cycles
            && self.controller == score.controller
            && self.os.hardware_panics == score.hardware_panics
            && self.injected == score.injected
            && self.heap == score.heap_stats
            && self.sampling == score.sampling
    }
}

/// One rebuilt pass over a workload's cells.
#[derive(Debug, Clone)]
pub struct Rebuild {
    /// Host wall time of the whole pass.
    pub wall: Duration,
    /// Per cell, one run per tool (the oracle's panel order).
    pub cells: Vec<Vec<ToolRun>>,
    /// Host time of each cell, milliseconds.
    pub cell_ms: Vec<f64>,
    /// Unique traces recorded.
    pub traces: u64,
    /// Fleet only: the single-shard phase-A report.
    pub shared: Option<FleetReport>,
    /// Fleet only: the rendered sweep scorecard.
    pub sweep: Option<String>,
    /// Fleet only: host time of the phase-B cells.
    pub phase_b: Duration,
}

/// The oracle's `build_tool`, from public constructors.
fn build_tool(name: &str, spec: &CampaignSpec, os: &mut Os) -> Box<dyn MemTool> {
    match name {
        "safemem" => {
            let sampling_seed = SmRng::keyed(spec.seed, SAMPLING_STREAM).next_u64();
            Box::new(
                SafeMem::builder()
                    .recovery(spec.recovery)
                    .sampling(SamplingPlan::new(spec.sampling_ppm, sampling_seed))
                    .build(os),
            )
        }
        "purify" => {
            let mut tool = Purify::new();
            tool.add_root_range(STATIC_BASE, 4096);
            Box::new(tool)
        }
        "memcheck" => {
            let mut tool = Memcheck::new();
            tool.add_root_range(STATIC_BASE, 4096);
            Box::new(tool)
        }
        "pageguard" => Box::new(PageGuard::new()),
        _ => Box::new(NullTool::new()),
    }
}

/// Replays one cell through one tool under the cell's injection, built as
/// the oracle builds it; `traced` inserts the timing wrappers.
fn run_tool(
    spec: &CampaignSpec,
    trace: &RecordedTrace,
    name: &'static str,
    traced: bool,
    replayer: &mut ColumnarReplayer,
) -> ToolRun {
    let (mut os, tool) = {
        let _s = span(Layer::Build);
        // `Os::new`, with the machine built here so it can be wrapped.
        let config = OsConfig {
            phys_bytes: spec.phys_bytes,
            swap_policy: spec.swap_policy,
            scrub_interval_cycles: spec.scrub_interval_cycles,
            ..OsConfig::default()
        };
        let machine = Machine::new(
            config.phys_base + config.phys_bytes,
            config.caches.clone(),
            config.cost.clone(),
        );
        let backend: Box<dyn MachineBackend> = if traced {
            Box::new(TimedBackend::new(machine))
        } else {
            Box::new(machine)
        };
        let mut os = Os::with_backend(backend, config);
        os.machine_mut().controller_mut().set_mode(spec.ecc_mode);
        let tool = build_tool(name, spec, &mut os);
        (os, tool)
    };
    let (result, injector) = if traced {
        let inner: Box<dyn MemTool> = Box::new(Timed::new(tool, Layer::of_tool(name)));
        let injector = Injector::new(inner, spec.mix, spec.seed);
        let mut outer = Timed::new(Box::new(injector), Layer::Inject);
        let result = replayer.replay(&trace.columnar, &mut os, &mut outer);
        (result, *outer.into_inner())
    } else {
        let mut injector = Injector::new(tool, spec.mix, spec.seed);
        let result = replayer.replay(&trace.columnar, &mut os, &mut injector);
        (result, injector)
    };
    let vm = os.vm().stats();
    ToolRun {
        tool: name,
        cpu_cycles: result.cpu_cycles,
        machine_cycles: os.total_cycles(),
        controller: os.machine().controller().stats(),
        os: os.stats(),
        page_faults: vm.page_faults,
        swap_outs: vm.swap_outs,
        levels: os.machine().hierarchy().level_stats(),
        injected: injector.log(),
        heap: result.heap_stats,
        sampling: injector.sampling(),
    }
}

/// Runs every cell of the workload, sequentially on this thread: records
/// the traces, (fleet) boots and runs phase A on one shard, replays every
/// cell — the full panel, or SafeMem alone on the fleet as phase B does —
/// and (fleet) runs the sweep on one thread.
///
/// With `traced`, the wrappers are inserted; spans are recorded only while
/// [`crate::profile::start`] is in effect.
///
/// # Errors
///
/// Returns a recording, fleet or sweep error.
pub fn rebuild(plan: &Plan, specs: &[CampaignSpec], traced: bool) -> Result<Rebuild, String> {
    let start = Instant::now();
    let traces = Traces::record(specs).map_err(|e| e.0)?;
    let shared = if plan.kind == Kind::Fleet {
        let processes = fleet_process_specs(specs).map_err(|e| e.0)?;
        let fleet = {
            let _s = span(Layer::FleetBoot);
            Fleet::boot(&processes, plan.fleet_config())
        };
        let _s = span(Layer::FleetRun);
        Some(fleet.run())
    } else {
        None
    };
    let panel: &[&'static str] = if plan.kind == Kind::Fleet {
        &["safemem"]
    } else {
        PANEL
    };
    let mut replayer = ColumnarReplayer::new();
    let mut cells = Vec::with_capacity(specs.len());
    let mut cell_ms = Vec::with_capacity(specs.len());
    let cells_start = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        let t = Instant::now();
        let runs = {
            let _s = span(Layer::Cell);
            panel
                .iter()
                .map(|&name| run_tool(spec, traces.of(i), name, traced, &mut replayer))
                .collect()
        };
        cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
        cells.push(runs);
    }
    let phase_b = cells_start.elapsed();
    let sweep = if plan.kind == Kind::Fleet {
        let _s = span(Layer::Sweep);
        let sweep = run_fleet_sweep(&plan.sweep_config(), 1, None).map_err(|e| e.0)?;
        Some(render_fleet_sweep(&sweep))
    } else {
        None
    };
    Ok(Rebuild {
        wall: start.elapsed(),
        cells,
        cell_ms,
        traces: traces.traces.len() as u64,
        shared,
        sweep,
        phase_b,
    })
}

/// Cells on which the traced pass, its untraced twin and the oracle do not
/// all agree. The fleet's phase-A report and sweep scorecard count as one
/// cell each.
#[must_use]
pub fn mismatches(
    oracle: &[Vec<ToolScore>],
    oracle_shared: Option<&FleetReport>,
    oracle_sweep: Option<&str>,
    untraced: &Rebuild,
    traced: &Rebuild,
) -> u64 {
    let mut bad = 0;
    for (i, scores) in oracle.iter().enumerate() {
        let (Some(plain), Some(timed)) = (untraced.cells.get(i), traced.cells.get(i)) else {
            bad += 1;
            continue;
        };
        let agrees = plain == timed
            && plain.len() == scores.len()
            && plain
                .iter()
                .zip(scores)
                .all(|(run, score)| run.matches(score));
        bad += u64::from(!agrees);
    }
    bad += (untraced.cells.len().max(traced.cells.len())).saturating_sub(oracle.len()) as u64;
    if let Some(shared) = oracle_shared {
        bad += u64::from(
            untraced.shared.as_ref() != Some(shared) || traced.shared.as_ref() != Some(shared),
        );
    }
    if let Some(sweep) = oracle_sweep {
        bad += u64::from(
            untraced.sweep.as_deref() != Some(sweep) || traced.sweep.as_deref() != Some(sweep),
        );
    }
    bad
}
