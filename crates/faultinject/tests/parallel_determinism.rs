//! The correctness centerpiece of the sharded runner: the scorecard must be
//! a pure function of the campaign matrix, never of the thread count or of
//! which worker happened to run which cell.
//!
//! The harsh preset is the one whose aggregate anchors the paper's
//! zero-false-positive claim, so that is the one pinned across 1, 2, and 8
//! workers (8 oversubscribes this matrix, forcing the cap-and-reassemble
//! path too).

use safemem_faultinject::{
    expand_fleet, expand_frontier, expand_matrix, frontier_rows, render_aggregate, render_campaign,
    render_fleet, render_frontier, run_fleet_corpus, run_matrix_with, CampaignSpec, MatrixReport,
    TraceMode,
};

/// Small request counts keep each campaign to tens of milliseconds while
/// still tripping the leak workloads' lifetime heuristic.
const FAST_REQUESTS: u64 = 48;

fn harsh_matrix() -> Vec<CampaignSpec> {
    let workloads = vec!["ypserv2".to_string(), "tar".to_string()];
    expand_matrix("harsh", &workloads, 2, 0, Some(FAST_REQUESTS)).expect("valid matrix")
}

fn arena_matrix() -> Vec<CampaignSpec> {
    let workloads: Vec<String> = safemem_faultinject::spec::CVE_WORKLOADS
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    expand_matrix("arena", &workloads, 2, 0, None).expect("valid matrix")
}

/// The full deterministic rendering of a matrix run: every per-campaign
/// scorecard in cell order, then the aggregate. Worker telemetry is
/// deliberately excluded — it is the one schedule-dependent output.
fn scorecard(report: &MatrixReport) -> String {
    let mut out = String::new();
    for result in &report.results {
        out.push_str(&render_campaign(result));
        out.push('\n');
    }
    out.push_str(&render_aggregate(&report.results));
    out
}

#[test]
fn scorecards_are_byte_identical_for_1_2_and_8_threads() {
    let specs = harsh_matrix();
    let t1 = run_matrix_with(&specs, 1, TraceMode::Memoized).expect("matrix runs");
    let t2 = run_matrix_with(&specs, 2, TraceMode::Memoized).expect("matrix runs");
    let t8 = run_matrix_with(&specs, 8, TraceMode::Memoized).expect("matrix runs");

    let (s1, s2, s8) = (scorecard(&t1), scorecard(&t2), scorecard(&t8));
    assert!(!s1.is_empty());
    assert_eq!(s1, s2, "2 workers changed the scorecard");
    assert_eq!(s1, s8, "8 workers changed the scorecard");

    // The invariant covers structured results too, not just the rendering.
    assert_eq!(t1.results, t2.results);
    assert_eq!(t1.results, t8.results);
}

#[test]
fn arena_scorecards_are_byte_identical_for_1_2_and_8_threads() {
    // Recovery adds healing state (quarantine, incident records) to the
    // replay; the survival rows must still be a pure function of the matrix.
    let specs = arena_matrix();
    let t1 = run_matrix_with(&specs, 1, TraceMode::Memoized).expect("matrix runs");
    let t2 = run_matrix_with(&specs, 2, TraceMode::Memoized).expect("matrix runs");
    let t8 = run_matrix_with(&specs, 8, TraceMode::Memoized).expect("matrix runs");

    let (s1, s2, s8) = (scorecard(&t1), scorecard(&t2), scorecard(&t8));
    assert!(s1.contains("survival["), "arena renders survival rows");
    assert_eq!(s1, s2, "2 workers changed the arena scorecard");
    assert_eq!(s1, s8, "8 workers changed the arena scorecard");
    assert_eq!(t1.results, t2.results);
    assert_eq!(t1.results, t8.results);
}

fn frontier_matrix() -> Vec<CampaignSpec> {
    let workloads = vec!["tar".to_string(), "cve-uaf".to_string()];
    expand_frontier(
        "frontier",
        &[1_000_000, 100_000, 10_000],
        &workloads,
        2,
        0,
        Some(FAST_REQUESTS),
    )
    .expect("valid ladder")
}

#[test]
fn frontier_scorecards_are_byte_identical_for_1_2_and_8_threads() {
    // The frontier adds a rate dimension to the matrix and a rendered rate
    // table to the scorecard; both must stay pure functions of the specs.
    let specs = frontier_matrix();
    let t1 = run_matrix_with(&specs, 1, TraceMode::Memoized).expect("matrix runs");
    let t2 = run_matrix_with(&specs, 2, TraceMode::Memoized).expect("matrix runs");
    let t8 = run_matrix_with(&specs, 8, TraceMode::Memoized).expect("matrix runs");

    let full = |report: &MatrixReport| {
        let mut out = scorecard(report);
        out.push_str(&render_frontier(&frontier_rows(&report.results)));
        out
    };
    let (s1, s2, s8) = (full(&t1), full(&t2), full(&t8));
    assert!(s1.contains("frontier: overhead vs detection"), "{s1}");
    assert_eq!(s1, s2, "2 workers changed the frontier scorecard");
    assert_eq!(s1, s8, "8 workers changed the frontier scorecard");
    assert_eq!(t1.results, t2.results);
    assert_eq!(t1.results, t8.results);
}

#[test]
fn fleet_scorecards_are_byte_identical_for_1_2_and_8_shards() {
    // Phase A's shard axis: partitioning the shared-machine fleet across
    // several machines must not move a single byte of the scorecard — the
    // turn-boundary cache barrier makes each process's trajectory a pure
    // function of its own history, and the merge reassembles canonical pid
    // order.
    let specs = expand_fleet(12, 0, Some(FAST_REQUESTS)).expect("valid fleet");
    let s1 = run_fleet_corpus(&specs, 2, 1, TraceMode::Memoized, None).expect("fleet runs");
    let s2 = run_fleet_corpus(&specs, 2, 2, TraceMode::Memoized, None).expect("fleet runs");
    let s8 = run_fleet_corpus(&specs, 2, 8, TraceMode::Memoized, None).expect("fleet runs");

    let (c1, c2, c8) = (render_fleet(&s1), render_fleet(&s2), render_fleet(&s8));
    assert!(c1.contains("fleet invariant"), "{c1}");
    assert_eq!(c1, c2, "2 shards changed the fleet scorecard");
    assert_eq!(c1, c8, "8 shards changed the fleet scorecard");

    // The merged shared-machine reports agree down to every counter —
    // cycles, faults, ECC stats — not just the rendered digits.
    assert_eq!(s1.shared, s2.shared);
    assert_eq!(s1.shared, s8.shared);
    assert_eq!(s1.agg, s2.agg);
    assert_eq!(s1.agg, s8.agg);
}

#[test]
fn fleet_scorecards_are_byte_identical_for_1_2_and_8_threads() {
    // The fleet path has its own runner (phase B shards cells and folds
    // into a fixed-size aggregate in completion order) — the fold must
    // still commute.
    let specs = expand_fleet(12, 0, Some(FAST_REQUESTS)).expect("valid fleet");
    let t1 = run_fleet_corpus(&specs, 1, 1, TraceMode::Memoized, None).expect("fleet runs");
    let t2 = run_fleet_corpus(&specs, 2, 1, TraceMode::Memoized, None).expect("fleet runs");
    let t8 = run_fleet_corpus(&specs, 8, 1, TraceMode::Memoized, None).expect("fleet runs");

    let (s1, s2, s8) = (render_fleet(&t1), render_fleet(&t2), render_fleet(&t8));
    assert!(s1.contains("fleet invariant"), "{s1}");
    assert_eq!(s1, s2, "2 workers changed the fleet scorecard");
    assert_eq!(s1, s8, "8 workers changed the fleet scorecard");

    // The structured aggregates agree too, not just the rendering.
    assert_eq!(t1.agg, t2.agg);
    assert_eq!(t1.agg, t8.agg);
    assert_eq!(t1.shared.detected, t2.shared.detected);
}

#[test]
fn sharded_arena_run_keeps_the_survival_gate() {
    let specs = arena_matrix();
    let report = run_matrix_with(&specs, 4, TraceMode::Memoized).expect("matrix runs");
    for result in &report.results {
        assert!(
            result.survival_invariant_holds(),
            "sharding broke the survival invariant:\n{}",
            render_campaign(result)
        );
    }
}

#[test]
fn sharded_harsh_run_keeps_the_zero_false_positive_gate() {
    let specs = harsh_matrix();
    let report = run_matrix_with(&specs, 4, TraceMode::Memoized).expect("matrix runs");
    for result in &report.results {
        assert!(
            result.harsh_invariant_holds(),
            "sharding broke the invariant:\n{}",
            render_campaign(result)
        );
    }
}

#[test]
fn worker_telemetry_accounts_for_every_cell_and_event() {
    let specs = harsh_matrix();
    let report = run_matrix_with(&specs, 2, TraceMode::Memoized).expect("matrix runs");
    let cells: usize = report.workers.iter().map(|w| w.campaigns).sum();
    assert_eq!(cells, specs.len(), "every cell executed exactly once");

    // Per-worker injection events are schedule-dependent, but their total
    // must equal the deterministic per-campaign logs.
    let telemetry: u64 = report.workers.iter().map(|w| w.injection_events).sum();
    let logged: u64 = report
        .results
        .iter()
        .flat_map(|r| r.tools.iter())
        .map(|t| {
            t.injected.data_bit_flips
                + t.injected.code_bit_flips
                + t.injected.multi_bit_bursts
                + t.injected.forced_scrub_cycles
                + t.injected.dma_transfers
                + t.injected.dma_faults
        })
        .sum();
    assert_eq!(telemetry, logged);
    assert!(logged > 0, "the harsh preset actually injects");
}
