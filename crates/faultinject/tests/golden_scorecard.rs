//! Golden-scorecard regression gate: the exact harsh-preset results — every
//! per-campaign card and the aggregate TP/FP/missed table, for 8 fixed seeds
//! over one leak workload (`ypserv2`) and one corruption workload (`tar`) —
//! are pinned as a checked-in snapshot. Any change to the injection
//! schedule, the detectors, the oracle's scoring, or the renderers shows up
//! here as a readable text diff instead of silently shifting the paper's
//! headline numbers.
//!
//! Regenerate after an *intentional* change with:
//! `UPDATE_GOLDEN=1 cargo test -p safemem-faultinject --test golden_scorecard`

use safemem_faultinject::{
    expand_fleet, expand_frontier, expand_matrix, frontier_rows, render_aggregate, render_campaign,
    render_fleet, render_frontier, run_fleet_corpus, run_matrix_with, TraceMode,
};

/// The 8 fixed seeds are 0..8; request count matches the fast suites so the
/// snapshot stays cheap to check on every run.
const SEEDS: u64 = 8;
const FAST_REQUESTS: u64 = 48;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/harsh_scorecard.txt"
);

const ARENA_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/arena_scorecard.txt"
);

const FRONTIER_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/frontier_scorecard.txt"
);

/// The frontier golden's rate ladder: 1.0, 0.5, 0.1, 0.01.
const FRONTIER_GOLDEN_RATES: &[u32] = &[1_000_000, 500_000, 100_000, 10_000];

const FLEET_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fleet_scorecard.txt"
);

/// The fleet golden's size: 8 processes per churn class — big enough for a
/// meaningful per-class table, small enough for every test run.
const FLEET_GOLDEN_PROCESSES: u64 = 24;

fn render_matrix(preset: &str, workloads: &[String], requests: Option<u64>) -> String {
    let specs = expand_matrix(preset, workloads, SEEDS, 0, requests).expect("valid matrix");
    // Two workers: the golden path exercises the sharded runner, and the
    // parallel-determinism suite guarantees the count cannot matter.
    let report = run_matrix_with(&specs, 2, TraceMode::Memoized).expect("matrix runs");
    let mut out = String::new();
    for result in &report.results {
        out.push_str(&render_campaign(result));
        out.push('\n');
    }
    out.push_str(&render_aggregate(&report.results));
    out
}

fn current_scorecard() -> String {
    let workloads = vec!["ypserv2".to_string(), "tar".to_string()];
    render_matrix("harsh", &workloads, Some(FAST_REQUESTS))
}

fn current_arena_scorecard() -> String {
    let workloads: Vec<String> = safemem_faultinject::spec::CVE_WORKLOADS
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    // The arena preset carries its own request count (one incident every 8
    // requests, 8 per campaign), so no override.
    render_matrix("arena", &workloads, None)
}

fn current_frontier_scorecard() -> String {
    // One workload per bug class, the 8 fixed seeds, the shortened request
    // stream. The snapshot is the aggregate plus the frontier table (128
    // per-campaign cards would drown the diff; the aggregate pins their
    // sums, and the frontier rows pin the per-rate numbers).
    let workloads: Vec<String> = ["ypserv2", "tar", "cve-uaf", "cve-dfree"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let specs = expand_frontier(
        "frontier",
        FRONTIER_GOLDEN_RATES,
        &workloads,
        SEEDS,
        0,
        Some(FAST_REQUESTS),
    )
    .expect("valid ladder");
    let report = run_matrix_with(&specs, 2, TraceMode::Memoized).expect("matrix runs");
    let mut out = render_aggregate(&report.results);
    out.push_str(&render_frontier(&frontier_rows(&report.results)));
    out
}

#[test]
fn harsh_scorecard_matches_the_checked_in_golden() {
    let current = current_scorecard();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &current).expect("golden snapshot is writable");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden snapshot exists; regenerate with \
         UPDATE_GOLDEN=1 cargo test -p safemem-faultinject --test golden_scorecard",
    );
    assert!(
        golden == current,
        "harsh scorecard drifted from the golden snapshot.\n\
         If the change is intentional, regenerate with\n\
         UPDATE_GOLDEN=1 cargo test -p safemem-faultinject --test golden_scorecard\n\
         and commit the diff.\n\n--- golden ---\n{golden}\n--- current ---\n{current}"
    );
}

#[test]
fn arena_scorecard_matches_the_checked_in_golden() {
    let current = current_arena_scorecard();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(ARENA_GOLDEN_PATH, &current).expect("golden snapshot is writable");
        return;
    }
    let golden = std::fs::read_to_string(ARENA_GOLDEN_PATH).expect(
        "golden snapshot exists; regenerate with \
         UPDATE_GOLDEN=1 cargo test -p safemem-faultinject --test golden_scorecard",
    );
    assert!(
        golden == current,
        "arena scorecard drifted from the golden snapshot.\n\
         If the change is intentional, regenerate with\n\
         UPDATE_GOLDEN=1 cargo test -p safemem-faultinject --test golden_scorecard\n\
         and commit the diff.\n\n--- golden ---\n{golden}\n--- current ---\n{current}"
    );
}

#[test]
fn arena_golden_pins_the_survival_verdict() {
    // 8 seeds x 4 synthetic-CVE workloads: every campaign must survive with
    // heap integrity and exact incident attribution, on top of the harsh
    // detection bar.
    let golden = std::fs::read_to_string(ARENA_GOLDEN_PATH).expect("golden snapshot exists");
    assert!(
        golden.contains(
            "survival invariant (safemem: survived, heap intact, incidents attributed): 32/32"
        ),
        "arena golden must show all 32 campaigns surviving with integrity"
    );
    assert!(
        golden.contains("harsh invariant (safemem: zero FPs, all planted bugs found): 32/32"),
        "arena golden must keep the zero-false-positive bar"
    );
}

#[test]
fn frontier_scorecard_matches_the_checked_in_golden() {
    let current = current_frontier_scorecard();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FRONTIER_GOLDEN_PATH, &current).expect("golden snapshot is writable");
        return;
    }
    let golden = std::fs::read_to_string(FRONTIER_GOLDEN_PATH).expect(
        "golden snapshot exists; regenerate with \
         UPDATE_GOLDEN=1 cargo test -p safemem-faultinject --test golden_scorecard",
    );
    assert!(
        golden == current,
        "frontier scorecard drifted from the golden snapshot.\n\
         If the change is intentional, regenerate with\n\
         UPDATE_GOLDEN=1 cargo test -p safemem-faultinject --test golden_scorecard\n\
         and commit the diff.\n\n--- golden ---\n{golden}\n--- current ---\n{current}"
    );
}

#[test]
fn frontier_golden_pins_the_zero_false_positive_verdict() {
    // A regenerated frontier golden can never quietly bless a sampling rate
    // that produces a false positive, and the always-on reference row must
    // show every allocation sampled.
    let golden = std::fs::read_to_string(FRONTIER_GOLDEN_PATH).expect("golden snapshot exists");
    assert!(
        golden.contains(
            "frontier invariant (safemem: zero false positives at every sampling rate): OK (4 rates)"
        ),
        "frontier golden must show zero false positives at all 4 rates"
    );
    assert!(
        golden.contains("1.0000"),
        "frontier golden includes the always-on reference row"
    );
}

fn current_fleet_scorecard() -> String {
    // The fleet's deterministic scorecard is its rendered outcome alone
    // (worker telemetry lives outside it): the shared-machine summary, the
    // per-class observed-vs-predicted table, the fleet-level detection
    // probabilities, the A/B cross-check, and the verdict line.
    let specs = expand_fleet(FLEET_GOLDEN_PROCESSES, 0, None).expect("valid fleet");
    let outcome = run_fleet_corpus(&specs, 2, 1, TraceMode::Memoized, None).expect("fleet runs");
    render_fleet(&outcome)
}

#[test]
fn fleet_scorecard_matches_the_checked_in_golden() {
    let current = current_fleet_scorecard();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FLEET_GOLDEN_PATH, &current).expect("golden snapshot is writable");
        return;
    }
    let golden = std::fs::read_to_string(FLEET_GOLDEN_PATH).expect(
        "golden snapshot exists; regenerate with \
         UPDATE_GOLDEN=1 cargo test -p safemem-faultinject --test golden_scorecard",
    );
    assert!(
        golden == current,
        "fleet scorecard drifted from the golden snapshot.\n\
         If the change is intentional, regenerate with\n\
         UPDATE_GOLDEN=1 cargo test -p safemem-faultinject --test golden_scorecard\n\
         and commit the diff.\n\n--- golden ---\n{golden}\n--- current ---\n{current}"
    );
}

#[test]
fn fleet_golden_pins_the_zero_false_positive_verdict() {
    // A regenerated fleet golden can never quietly bless a false positive,
    // a broken A/B cross-check, or an out-of-band detection rate.
    let golden = std::fs::read_to_string(FLEET_GOLDEN_PATH).expect("golden snapshot exists");
    assert!(
        golden.contains(&format!(
            "fleet invariant (safemem: zero false positives across \
             {FLEET_GOLDEN_PROCESSES} processes): OK"
        )),
        "fleet golden must show the zero-false-positive verdict:\n{golden}"
    );
    assert!(
        golden.contains("16/16 agree"),
        "fleet golden must keep shared-machine/isolated-cell agreement on \
         all 16 corruption cells:\n{golden}"
    );
    assert!(
        golden.contains("predicted 1-(1-r)^n"),
        "fleet golden must report the fleet-level detection probability:\n{golden}"
    );
}

#[test]
fn golden_snapshot_pins_the_zero_false_positive_verdict() {
    // Belt and braces: the snapshot itself must assert the paper's claim, so
    // a regenerated golden can never quietly bless a false positive.
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden snapshot exists");
    assert!(
        golden.contains("harsh invariant (safemem: zero FPs, all planted bugs found): 16/16"),
        "golden must show all 16 campaigns upholding the invariant"
    );
}
