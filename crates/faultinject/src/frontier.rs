//! The overhead-vs-detection frontier: sweeping SafeMem's instrumentation
//! sampling rate across a campaign matrix.
//!
//! GWP-ASan's production insight is that sampled protection turns a
//! fixed-cost tool into a dial: at rate 1.0 you have today's always-on
//! SafeMem, at 1% you have near-zero overhead and a proportionally smaller
//! chance of catching each planted bug. The *curve* — detection
//! probability per bug class against simulated overhead, per rate — is the
//! production-relevant result, so the frontier sweep scores a whole ladder
//! of rates over the same recorded traces (the sampling rate is absent
//! from [`TraceKey`](crate::runner::TraceKey), so an n-rate ladder adds
//! zero recording work) and renders one row per rate.
//!
//! Two invariants anchor the sweep:
//!
//! * **Zero false positives at every rate.** Sampling out an allocation
//!   removes instrumentation; it must never add a report. The frontier
//!   verdict fails if any rate shows a SafeMem false positive.
//! * **Monotone detection.** The per-allocation decisions nest across
//!   rates (see [`SamplingPlan`](safemem_core::SamplingPlan)), so a bug
//!   caught at rate r is caught at every higher rate under the same seed.

use std::fmt::Write as _;

use crate::oracle::{CampaignError, CampaignResult};
use crate::runner::{expand_matrix, reserve_cells};
use crate::spec::CampaignSpec;
use safemem_core::PPM;
use safemem_workloads::BugClass;

/// The default sampling-rate ladder, in parts-per-million: 1.0, 0.5, 0.2,
/// 0.1, 0.02, 0.01. Ordered high-to-low so the first frontier row is the
/// always-on reference the harsh gate pins.
pub const FRONTIER_RATES_PPM: &[u32] = &[PPM, 500_000, 200_000, 100_000, 20_000, 10_000];

/// Expands a sampling-rate ladder over a seeds × workloads matrix:
/// rate-major, then the canonical seed-major/workload-minor cell order
/// within each rate. All rates share the same recorded traces under the
/// memoized runner, because the sampling rate is not part of the trace
/// key.
///
/// # Errors
///
/// Returns [`CampaignError`] for an unknown preset or workload, an empty
/// ladder, or a rate above [`PPM`].
pub fn expand_frontier(
    preset: &str,
    rates_ppm: &[u32],
    workloads: &[String],
    seeds: u64,
    seed0: u64,
    requests: Option<u64>,
) -> Result<Vec<CampaignSpec>, CampaignError> {
    if rates_ppm.is_empty() {
        return Err(CampaignError("frontier needs at least one rate".into()));
    }
    if let Some(&bad) = rates_ppm.iter().find(|&&r| r > PPM) {
        return Err(CampaignError(format!(
            "sampling rate {bad} ppm exceeds {PPM}"
        )));
    }
    let base = expand_matrix(preset, workloads, seeds, seed0, requests)?;
    let mut specs = reserve_cells(
        base.len() as u128 * rates_ppm.len() as u128,
        "--seeds with --sampling",
    )?;
    for &rate in rates_ppm {
        for spec in &base {
            let mut spec = spec.clone();
            spec.sampling_ppm = rate;
            specs.push(spec);
        }
    }
    Ok(specs)
}

/// Per-bug-class detection tally within one frontier row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTally {
    /// Opportunities to detect (planted leak groups, or campaigns planting
    /// this corruption class).
    pub total: usize,
    /// How many SafeMem reported.
    pub found: usize,
}

impl ClassTally {
    /// Detection probability (0 when the class never occurred).
    #[must_use]
    pub fn probability(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.found as f64 / self.total as f64
        }
    }
}

/// One rate's aggregate scores across the frontier matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierRow {
    /// The sampling rate, parts-per-million.
    pub rate_ppm: u32,
    /// Campaigns aggregated into this row.
    pub campaigns: usize,
    /// Allocations SafeMem saw, summed over the row's campaigns.
    pub total_allocs: u64,
    /// Allocations that drew instrumentation.
    pub sampled_allocs: u64,
    /// Planted leak groups found / total (ALeak + SLeak workloads).
    pub leak: ClassTally,
    /// Overflow campaigns detected / total.
    pub overflow: ClassTally,
    /// Use-after-free campaigns detected / total.
    pub uaf: ClassTally,
    /// Double-free campaigns detected / total.
    pub double_free: ClassTally,
    /// SafeMem false positives of any kind, summed (the frontier demands
    /// zero at every rate).
    pub false_positives: u64,
    /// SafeMem simulated CPU cycles, summed.
    pub safemem_cycles: u64,
    /// Uninstrumented-baseline CPU cycles, summed — the denominator of the
    /// runtime-overhead column.
    pub baseline_cycles: u64,
    /// SafeMem cumulative heap waste bytes (padding + rounding), summed.
    pub waste_bytes: u64,
    /// SafeMem cumulative heap payload bytes, summed.
    pub payload_bytes: u64,
}

impl FrontierRow {
    /// An all-zero row for `rate_ppm`, ready to fold results into.
    #[must_use]
    pub fn empty(rate_ppm: u32) -> Self {
        FrontierRow {
            rate_ppm,
            campaigns: 0,
            total_allocs: 0,
            sampled_allocs: 0,
            leak: ClassTally::default(),
            overflow: ClassTally::default(),
            uaf: ClassTally::default(),
            double_free: ClassTally::default(),
            false_positives: 0,
            safemem_cycles: 0,
            baseline_cycles: 0,
            waste_bytes: 0,
            payload_bytes: 0,
        }
    }

    /// Folds one campaign result into this row. Every column is a
    /// commutative integer sum, so fold order never changes the row — the
    /// property the streaming aggregator relies on.
    pub fn fold(&mut self, result: &CampaignResult) {
        self.campaigns += 1;
        let Some(safemem) = result.tool("safemem") else {
            return;
        };
        if let Some(sampling) = &safemem.sampling {
            self.total_allocs += sampling.total_allocs;
            self.sampled_allocs += sampling.sampled_allocs;
        }
        self.false_positives += safemem.false_positives();
        self.safemem_cycles += safemem.cpu_cycles;
        if let Some(none) = result.tool("none") {
            self.baseline_cycles += none.cpu_cycles;
        }
        self.waste_bytes += safemem.heap_stats.cumulative_waste;
        self.payload_bytes += safemem.heap_stats.cumulative_payload;
        self.leak.total += result.truth.leak_groups.len();
        self.leak.found += safemem.leaks_found;
        let class = match result.truth.bug {
            BugClass::Overflow => Some(&mut self.overflow),
            BugClass::UseAfterFree => Some(&mut self.uaf),
            BugClass::DoubleFree => Some(&mut self.double_free),
            BugClass::ALeak | BugClass::SLeak => None,
        };
        if let Some(tally) = class {
            tally.total += 1;
            if safemem.corruption_found {
                tally.found += 1;
            }
        }
    }

    /// The sampling rate as a fraction.
    #[must_use]
    pub fn rate(&self) -> f64 {
        f64::from(self.rate_ppm) / f64::from(PPM)
    }

    /// Simulated runtime overhead of SafeMem over the uninstrumented
    /// baseline, percent.
    #[must_use]
    pub fn cpu_overhead_percent(&self) -> f64 {
        if self.baseline_cycles == 0 {
            0.0
        } else {
            (self.safemem_cycles as f64 - self.baseline_cycles as f64) / self.baseline_cycles as f64
                * 100.0
        }
    }

    /// Space overhead (Table 4's metric): wasted bytes per payload byte,
    /// percent.
    #[must_use]
    pub fn memory_overhead_percent(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.waste_bytes as f64 / self.payload_bytes as f64 * 100.0
        }
    }

    /// Fraction of allocations instrumented.
    #[must_use]
    pub fn sampled_fraction(&self) -> f64 {
        if self.total_allocs == 0 {
            0.0
        } else {
            self.sampled_allocs as f64 / self.total_allocs as f64
        }
    }
}

/// Groups frontier matrix results by sampling rate, in order of first
/// appearance (the ladder order [`expand_frontier`] laid down), and
/// aggregates each group into a [`FrontierRow`].
#[must_use]
pub fn frontier_rows(results: &[CampaignResult]) -> Vec<FrontierRow> {
    let mut rows: Vec<FrontierRow> = Vec::new();
    for result in results {
        let rate = result.spec.sampling_ppm;
        let row = match rows.iter_mut().find(|r| r.rate_ppm == rate) {
            Some(row) => row,
            None => {
                rows.push(FrontierRow::empty(rate));
                rows.last_mut().expect("just pushed")
            }
        };
        row.fold(result);
    }
    rows
}

/// Renders the frontier table plus its zero-false-positive verdict line.
/// Byte-stable: every column derives from deterministic integer sums with
/// fixed-precision formatting.
#[must_use]
pub fn render_frontier(rows: &[FrontierRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "frontier: overhead vs detection across sampling rates");
    let _ = writeln!(
        out,
        "  {:<8} {:>5}  {:<22} {:<14} {:<14} {:<14} {:<14} {:>4} {:>9} {:>9}",
        "rate",
        "camps",
        "sampled-allocs",
        "leak",
        "overflow",
        "uaf",
        "double-free",
        "FP",
        "cpu-ovh%",
        "mem-ovh%"
    );
    for row in rows {
        let sampled = format!(
            "{}/{} ({:.1}%)",
            row.sampled_allocs,
            row.total_allocs,
            row.sampled_fraction() * 100.0
        );
        let class = |t: &ClassTally| {
            if t.total == 0 {
                "-".to_string()
            } else {
                format!("{}/{} p={:.2}", t.found, t.total, t.probability())
            }
        };
        let _ = writeln!(
            out,
            "  {:<8.4} {:>5}  {:<22} {:<14} {:<14} {:<14} {:<14} {:>4} {:>9.1} {:>9.1}",
            row.rate(),
            row.campaigns,
            sampled,
            class(&row.leak),
            class(&row.overflow),
            class(&row.uaf),
            class(&row.double_free),
            row.false_positives,
            row.cpu_overhead_percent(),
            row.memory_overhead_percent(),
        );
    }
    let total_fps: u64 = rows.iter().map(|r| r.false_positives).sum();
    if total_fps == 0 {
        let _ = writeln!(
            out,
            "frontier invariant (safemem: zero false positives at every sampling rate): OK ({} rates)",
            rows.len()
        );
    } else {
        let _ = writeln!(
            out,
            "frontier invariant (safemem: zero false positives at every sampling rate): VIOLATED ({total_fps} FPs)"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_frontier_is_rate_major() {
        let workloads = vec!["tar".to_string()];
        let specs = expand_frontier("frontier", &[PPM, 10_000], &workloads, 2, 0, Some(24))
            .expect("valid ladder");
        let cells: Vec<(u32, u64)> = specs.iter().map(|s| (s.sampling_ppm, s.seed)).collect();
        assert_eq!(cells, vec![(PPM, 0), (PPM, 1), (10_000, 0), (10_000, 1)]);
    }

    #[test]
    fn expand_frontier_rejects_bad_ladders() {
        let workloads = vec!["tar".to_string()];
        assert!(expand_frontier("frontier", &[], &workloads, 1, 0, None).is_err());
        assert!(expand_frontier("frontier", &[PPM + 1], &workloads, 1, 0, None).is_err());
        assert!(expand_frontier("nope", &[PPM], &workloads, 1, 0, None).is_err());
    }
}
