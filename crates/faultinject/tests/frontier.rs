//! Statistical gate for the sampling frontier: the rate ladder must (a) keep
//! the always-on rung byte-compatible with the harsh acceptance gate, (b)
//! sample allocation populations that match the configured rate to within a
//! precomputed binomial tolerance band, (c) detect each bug class with
//! probability consistent with the rate, monotone in the rate, and (d) never
//! report a SafeMem false positive at any rate.
//!
//! One shared ladder matrix feeds every test: the full default rate ladder
//! over one workload per bug class (SLeak, Overflow, UseAfterFree,
//! DoubleFree), 8 seeds, shortened request stream. All rates replay the same
//! recorded traces (the sampling rate is absent from the trace key), so the
//! matrix stays cheap.

use std::sync::OnceLock;

use safemem_core::{SamplingPlan, PPM};
use safemem_faultinject::{
    expand_frontier, frontier_rows, render_campaign, render_frontier, run_matrix_with, FrontierRow,
    MatrixReport, SmRng, TraceMode, FRONTIER_RATES_PPM, SAMPLING_STREAM,
};

const SEEDS: u64 = 8;
const FAST_REQUESTS: u64 = 48;

/// One workload per scored bug class.
const WORKLOADS: &[&str] = &["ypserv2", "tar", "cve-uaf", "cve-dfree"];

fn ladder_matrix() -> &'static MatrixReport {
    static MATRIX: OnceLock<MatrixReport> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let workloads: Vec<String> = WORKLOADS.iter().map(|s| (*s).to_string()).collect();
        let specs = expand_frontier(
            "frontier",
            FRONTIER_RATES_PPM,
            &workloads,
            SEEDS,
            0,
            Some(FAST_REQUESTS),
        )
        .expect("valid ladder");
        run_matrix_with(&specs, 4, TraceMode::Memoized).expect("ladder matrix runs")
    })
}

fn rows() -> Vec<FrontierRow> {
    frontier_rows(&ladder_matrix().results)
}

/// 6-sigma binomial band half-width around `n * p` — wide enough that a
/// correct sampler essentially never trips it, tight enough that a broken
/// hash (constant, correlated, or off by a rate factor) lands far outside.
fn six_sigma(n: f64, p: f64) -> f64 {
    6.0 * (n * p * (1.0 - p)).sqrt()
}

/// The always-on rung *is* the harsh gate: every rate-1.0 campaign upholds
/// the zero-false-positive / all-bugs-found invariant (the CI smoke runs the
/// full 160-campaign version; this pins the ladder's own rung), and the
/// frontier row reports every allocation sampled and every class at p=1.
#[test]
fn full_rate_rung_upholds_the_harsh_gate() {
    let matrix = ladder_matrix();
    let full: Vec<_> = matrix
        .results
        .iter()
        .filter(|r| r.spec.sampling_ppm == PPM)
        .collect();
    assert_eq!(full.len(), (SEEDS as usize) * WORKLOADS.len());
    for result in &full {
        assert!(
            result.harsh_invariant_holds(),
            "rate 1.0 broke the harsh gate:\n{}",
            render_campaign(result)
        );
    }
    let rows = rows();
    let row = rows.iter().find(|r| r.rate_ppm == PPM).expect("1.0 row");
    assert_eq!(row.sampled_allocs, row.total_allocs);
    assert!(row.total_allocs > 0);
    for (name, tally) in [
        ("leak", row.leak),
        ("overflow", row.overflow),
        ("uaf", row.uaf),
        ("double-free", row.double_free),
    ] {
        assert!(tally.total > 0, "{name}: ladder covers the class");
        assert_eq!(tally.found, tally.total, "{name}: p=1.0 at rate 1.0");
    }
}

/// The pipeline's sampled-allocation counts are exactly the ones the
/// published decision function dictates: a test-side mirror of the
/// (seed, stream)-keyed plan reproduces every campaign's summary.
#[test]
fn sampled_counts_match_a_mirror_of_the_decision_function() {
    for result in &ladder_matrix().results {
        let safemem = result.tool("safemem").expect("panel includes safemem");
        let summary = safemem.sampling.expect("safemem reports sampling");
        assert_eq!(summary.rate_ppm, result.spec.sampling_ppm);
        let seed = SmRng::keyed(result.spec.seed, SAMPLING_STREAM).next_u64();
        let plan = SamplingPlan::new(result.spec.sampling_ppm, seed);
        let expected = (0..summary.total_allocs)
            .filter(|&i| plan.samples(i))
            .count() as u64;
        assert_eq!(
            summary.sampled_allocs, expected,
            "{} seed {} rate {}: sampling diverged from the decision function",
            result.spec.workload, result.spec.seed, result.spec.sampling_ppm
        );
    }
}

/// Across each rate's whole row, the sampled fraction stays inside the
/// 6-sigma binomial band around the configured rate.
#[test]
fn sampled_fractions_stay_inside_the_binomial_band() {
    for row in rows() {
        let n = row.total_allocs as f64;
        let p = row.rate();
        let expected = n * p;
        let band = six_sigma(n, p);
        let got = row.sampled_allocs as f64;
        assert!(
            (got - expected).abs() <= band,
            "rate {p}: sampled {got} outside {expected} +/- {band} (n = {n})"
        );
    }
}

/// Per-class detection counts stay above the one-sided binomial floor
/// `n*r - 6*sigma`: a sampled bug site is caught with probability at least
/// the sampling rate (spillover onto sampled neighbours can only raise it,
/// so only the lower side binds).
#[test]
fn per_class_detection_clears_the_one_sided_band() {
    for row in rows() {
        let r = row.rate();
        for (name, tally) in [
            ("leak", row.leak),
            ("overflow", row.overflow),
            ("uaf", row.uaf),
            ("double-free", row.double_free),
        ] {
            let n = tally.total as f64;
            let floor = (n * r - six_sigma(n, r)).max(0.0);
            assert!(
                tally.found as f64 >= floor,
                "rate {r} {name}: found {}/{} below the binomial floor {floor:.2}",
                tally.found,
                tally.total
            );
            assert!(tally.found <= tally.total, "rate {r} {name}: overcount");
        }
    }
}

/// Detection is monotone non-decreasing in the sampling rate. The
/// per-allocation decisions nest across rates under one seed (threshold
/// hashing), so a corruption caught at rate r is caught at every higher
/// rate; the leak detector's group statistics only gain observations.
#[test]
fn detection_is_monotone_in_the_sampling_rate() {
    let mut rows = rows();
    rows.sort_by_key(|r| r.rate_ppm);
    for pair in rows.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        assert!(
            lo.sampled_allocs <= hi.sampled_allocs,
            "sampled population must nest: {} vs {}",
            lo.rate(),
            hi.rate()
        );
        for (name, a, b) in [
            ("leak", lo.leak, hi.leak),
            ("overflow", lo.overflow, hi.overflow),
            ("uaf", lo.uaf, hi.uaf),
            ("double-free", lo.double_free, hi.double_free),
        ] {
            assert!(
                a.found <= b.found,
                "{name}: detection fell from {} at rate {} to {} at rate {}",
                a.found,
                lo.rate(),
                b.found,
                hi.rate()
            );
        }
    }
}

/// The frontier's hard invariant: sampling out instrumentation must never
/// *add* a report. Zero SafeMem false positives at every rate, and the
/// rendered table says so.
#[test]
fn every_rate_reports_zero_false_positives() {
    for result in &ladder_matrix().results {
        let safemem = result.tool("safemem").expect("panel includes safemem");
        assert_eq!(
            safemem.false_positives(),
            0,
            "{} seed {} rate {}: sampling introduced a false positive:\n{}",
            result.spec.workload,
            result.spec.seed,
            result.spec.sampling_ppm,
            render_campaign(result)
        );
    }
    let rendered = render_frontier(&rows());
    assert!(
        rendered.contains("zero false positives at every sampling rate): OK"),
        "{rendered}"
    );
}

/// Overhead shrinks with the rate: the cheapest rung must cost less CPU and
/// less memory than always-on instrumentation (that is the point of the
/// frontier), while the uninstrumented denominator is rate-invariant.
#[test]
fn overhead_decreases_toward_the_cheap_end_of_the_ladder() {
    let mut rows = rows();
    rows.sort_by_key(|r| r.rate_ppm);
    let (cheapest, full) = (rows.first().expect("rows"), rows.last().expect("rows"));
    assert_eq!(full.rate_ppm, PPM);
    assert!(
        cheapest.safemem_cycles < full.safemem_cycles,
        "sampling must shed simulated CPU: {} vs {}",
        cheapest.safemem_cycles,
        full.safemem_cycles
    );
    assert!(
        cheapest.waste_bytes < full.waste_bytes,
        "sampling must shed heap waste: {} vs {}",
        cheapest.waste_bytes,
        full.waste_bytes
    );
    assert_eq!(
        cheapest.baseline_cycles, full.baseline_cycles,
        "the uninstrumented denominator is rate-invariant"
    );
}
