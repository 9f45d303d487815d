//! Deterministic scorecard rendering.
//!
//! Everything here formats already-sorted data with `{}`/`{:?}` on plain
//! integers and derived enums — no floats beyond a fixed-precision rate, no
//! hash-ordered iteration, no timestamps — so a campaign's rendering is
//! byte-identical across runs and across machines.

use std::fmt::Write as _;

use crate::oracle::{CampaignResult, ToolScore};

/// Renders one campaign as a multi-line scorecard.
#[must_use]
pub fn render_campaign(result: &CampaignResult) -> String {
    let spec = &result.spec;
    let truth = &result.truth;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign preset={} workload={} seed={:#018x}",
        spec.preset, spec.workload, spec.seed
    );
    let _ = writeln!(
        out,
        "  mix permille: data={} code={} multi={} scrub={} dma={}",
        spec.mix.data_bit_permille,
        spec.mix.code_bit_permille,
        spec.mix.multi_bit_permille,
        spec.mix.scrub_permille,
        spec.mix.dma_permille
    );
    let _ = writeln!(
        out,
        "  machine: phys={} swap={:?} scrub_interval={:?} ecc={:?}",
        spec.phys_bytes, spec.swap_policy, spec.scrub_interval_cycles, spec.ecc_mode
    );
    let _ = writeln!(
        out,
        "  truth: bug={:?} leak_groups={} corruption={} trace_ops={}",
        truth.bug,
        truth.leak_groups.len(),
        truth.expects_corruption,
        truth.trace_ops
    );
    if truth.markers.total() > 0 {
        let _ = writeln!(
            out,
            "  markers: overflow={} uaf={} dfree={}",
            truth.markers.overflows, truth.markers.uafs, truth.markers.double_frees
        );
    }
    let _ = writeln!(
        out,
        "  {:<10} {:>5} {:>5} {:>5} {:>5} {:>5} {:>7} {:>7} {:>8} {:>11} {:>9} {:>6}",
        "tool",
        "tpL",
        "fpL",
        "missL",
        "corr",
        "fpC",
        "hwRep",
        "hwPanic",
        "misattr",
        "inj(d/c/m)",
        "corrected",
        "fpAll"
    );
    for t in &result.tools {
        let _ = writeln!(out, "  {}", render_tool_row(t));
    }
    for t in &result.tools {
        if let Some(s) = &t.survival {
            let yn = |b: bool| if b { "yes" } else { "NO" };
            let _ = writeln!(
                out,
                "  survival[{}]: survived={} integrity={} attributed={} healed={}",
                t.tool,
                yn(s.survived),
                yn(s.integrity),
                yn(s.attributed),
                s.healed
            );
        }
    }
    out
}

fn render_tool_row(t: &ToolScore) -> String {
    format!(
        "{:<10} {:>5} {:>5} {:>5} {:>5} {:>5} {:>7} {:>7} {:>8} {:>4}/{:>2}/{:>2} {:>9} {:>6}",
        t.tool,
        t.leaks_found,
        t.false_leaks,
        t.leaks_missed,
        if t.expects_corruption {
            if t.corruption_found {
                "yes"
            } else {
                "NO"
            }
        } else {
            "-"
        },
        t.false_corruptions,
        t.hardware_reports,
        t.hardware_panics,
        t.hardware_misattributions,
        t.injected.data_bit_flips,
        t.injected.code_bit_flips,
        t.injected.multi_bit_bursts,
        t.controller.corrected_single_bit,
        t.false_positives()
    )
}

/// Renders the cross-campaign aggregate table plus the acceptance verdict.
///
/// Implemented by folding every result into a [`StreamAggregate`] — the
/// collected path and the streaming path therefore render through the same
/// code and cannot drift apart.
///
/// [`StreamAggregate`]: crate::stream::StreamAggregate
#[must_use]
pub fn render_aggregate(results: &[CampaignResult]) -> String {
    let mut aggregate = crate::stream::StreamAggregate::new();
    for result in results {
        aggregate.fold(result);
    }
    aggregate.render()
}

/// Renders the execution telemetry of a sharded run from its parts:
/// per-worker cell counts, busy time, and injection-event totals.
///
/// Unlike every other renderer in this module, this output is **not**
/// deterministic — which cells land on which worker, and how long they take,
/// depend on host scheduling. It is therefore never part of the scorecard
/// that `tests/parallel_determinism.rs` compares byte-for-byte; callers
/// print it after the aggregate, clearly separated.
#[must_use]
pub fn render_worker_table(
    campaigns: usize,
    threads: usize,
    wall: std::time::Duration,
    workers: &[crate::runner::WorkerReport],
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "execution: {campaigns} campaigns on {threads} worker threads, wall {:.1} ms (host timing; not part of the scorecard)",
        wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        out,
        "  {:<7} {:>9} {:>7} {:>10} {:>10}",
        "worker", "campaigns", "traces", "busy_ms", "injEvents"
    );
    for w in workers {
        let _ = writeln!(
            out,
            "  {:<7} {:>9} {:>7} {:>10.1} {:>10}",
            w.worker,
            w.campaigns,
            w.traces_recorded,
            w.busy.as_secs_f64() * 1e3,
            w.injection_events
        );
    }
    out
}
