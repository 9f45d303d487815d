//! End-to-end fleet campaign tests: the two-phase run (shared-machine
//! simulation + sharded per-process cells), the detection-probability
//! accounting, and the bounded-memory aggregation.

use safemem_faultinject::{
    expand_fleet, fleet_process_specs, render_fleet, run_fleet_corpus, run_fleet_sweep,
    CampaignSpec, CorpusMode, SmRng, SweepConfig, TraceCorpus, TraceKey, TraceMode,
    SAMPLING_STREAM,
};
use safemem_fleet::{Fleet, FleetConfig};

/// A small fleet that still exercises every moving part: 24 processes,
/// 8 per churn class, at the preset's 0.2 sampling rate.
const SMALL_FLEET: u64 = 24;

#[test]
fn fleet_campaign_upholds_the_invariants() {
    let specs = expand_fleet(SMALL_FLEET, 0, None).expect("valid fleet");
    let outcome = run_fleet_corpus(&specs, 2, 1, TraceMode::Memoized, None).expect("fleet runs");

    assert_eq!(outcome.processes, SMALL_FLEET);
    assert_eq!(outcome.agg.cells, SMALL_FLEET);
    assert_eq!(outcome.shared.processes, SMALL_FLEET);

    // Zero false positives and zero hardware panics under the harsh
    // correctable-only mix — the fleet analogue of the harsh invariant.
    assert_eq!(outcome.agg.false_positives, 0, "{:?}", outcome.agg);
    assert_eq!(outcome.agg.hardware_panics, 0);
    assert_eq!(outcome.shared.false_positives(), 0);

    // Every corruption cell's isolated detection matches the
    // shared-machine run: detection follows the sampling decision, and
    // both phases derive the per-process sampling seed identically.
    assert_eq!(outcome.agg.ab_checked, 16, "8 uaf + 8 obo cells");
    assert_eq!(outcome.agg.ab_agreed, outcome.agg.ab_checked);

    // The 6-sigma binomial band around the predicted rate holds per class.
    assert!(outcome.agg.invariants_hold(), "{}", render_fleet(&outcome));

    // Sub-1.0 sampling: the fleet instruments a strict subset of
    // allocations, and some process catches a bug (24 cells at 0.2 make
    // an all-miss fleet astronomically unlikely, and the run is
    // deterministic).
    let detected: u64 = outcome.agg.classes.iter().map(|c| c.detected).sum();
    assert!(detected > 0, "{}", render_fleet(&outcome));
    for class in &outcome.agg.classes {
        assert!(class.sampled_allocs < class.total_allocs);
        assert!(class.sampled_allocs > 0);
    }

    // Memoization: three churn workloads, one recorded trace each, for
    // any fleet size.
    let recorded: usize = outcome.workers.iter().map(|w| w.traces_recorded).sum();
    assert_eq!(recorded, 3, "one trace per churn workload");
}

#[test]
fn fleet_scorecard_is_deterministic_and_greppable() {
    let specs = expand_fleet(SMALL_FLEET, 0, None).expect("valid fleet");
    let a = run_fleet_corpus(&specs, 1, 1, TraceMode::Memoized, None).expect("fleet runs");
    let b = run_fleet_corpus(&specs, 4, 1, TraceMode::Memoized, None).expect("fleet runs");
    let card_a = render_fleet(&a);
    let card_b = render_fleet(&b);
    assert_eq!(
        card_a, card_b,
        "the fleet scorecard is byte-identical across thread counts"
    );
    assert!(
        card_a.contains(&format!(
            "fleet invariant (safemem: zero false positives across {SMALL_FLEET} processes): OK"
        )),
        "{card_a}"
    );
    assert!(
        card_a.contains("phase A (shared-machine fleet)"),
        "{card_a}"
    );
    assert!(
        card_a.contains("A/B cross-check (shared-machine vs isolated-cell detection"),
        "{card_a}"
    );
    assert!(card_a.contains("predicted 1-(1-r)^n"), "{card_a}");
}

#[test]
fn fresh_record_mode_agrees_with_memoized() {
    let specs = expand_fleet(6, 3, Some(48)).expect("valid fleet");
    let memo = run_fleet_corpus(&specs, 2, 1, TraceMode::Memoized, None).expect("fleet runs");
    let fresh = run_fleet_corpus(&specs, 2, 1, TraceMode::FreshRecord, None).expect("fleet runs");
    assert_eq!(memo.agg, fresh.agg);
    let recorded: usize = fresh.workers.iter().map(|w| w.traces_recorded).sum();
    assert_eq!(recorded, 6, "fresh mode records per cell");
}

#[test]
fn detection_follows_the_sampling_decision_across_phases() {
    // The load-bearing cross-check in isolation: for each uaf/obo process,
    // compute the phase-B detection and the phase-A detection separately
    // and compare — the aggregate's ab counters must equal a manual tally.
    let specs = expand_fleet(12, 7, Some(48)).expect("valid fleet");
    let outcome = run_fleet_corpus(&specs, 3, 1, TraceMode::Memoized, None).expect("fleet runs");
    assert_eq!(outcome.agg.ab_checked, 8);
    assert_eq!(outcome.agg.ab_agreed, 8);
    // And the per-process sampling seeds really are the oracle derivation.
    let procs = fleet_process_specs(&specs).expect("churn cells");
    for (proc, spec) in procs.iter().zip(&specs) {
        assert_eq!(
            proc.sampling_seed,
            SmRng::keyed(spec.seed, SAMPLING_STREAM).next_u64()
        );
    }
}

#[test]
fn sharded_campaign_matches_the_single_machine_reference() {
    // The campaign-level shard contract: the whole outcome — shared-machine
    // report, phase-B aggregate, scorecard bytes — is identical whether
    // phase A ran on one machine or several.
    let specs = expand_fleet(12, 0, Some(48)).expect("valid fleet");
    let reference = run_fleet_corpus(&specs, 2, 1, TraceMode::Memoized, None).expect("fleet runs");
    for shards in [2usize, 8] {
        let sharded =
            run_fleet_corpus(&specs, 2, shards, TraceMode::Memoized, None).expect("fleet runs");
        assert_eq!(reference.shared, sharded.shared, "{shards} shards");
        assert_eq!(reference.agg, sharded.agg, "{shards} shards");
        assert_eq!(
            render_fleet(&reference),
            render_fleet(&sharded),
            "{shards} shards"
        );
        assert_eq!(sharded.shards, shards.min(specs.len()));
    }
}

#[test]
fn epoch_batched_and_eager_leak_checks_detect_identically_on_the_fleet_path() {
    // The fleet-path mirror of the single-process epoch differential, on
    // the golden fleet's seeds: batching leak-check deadlines at epoch
    // boundaries must not change a single detection field — per-process
    // flags, per-class tallies, or false positives.
    let specs = expand_fleet(SMALL_FLEET, 0, None).expect("valid fleet");
    let procs = fleet_process_specs(&specs).expect("churn cells");
    let batched = Fleet::boot(
        &procs,
        FleetConfig {
            epoch_batch: true,
            ..FleetConfig::default()
        },
    )
    .run();
    let eager = Fleet::boot(
        &procs,
        FleetConfig {
            epoch_batch: false,
            ..FleetConfig::default()
        },
    )
    .run();
    assert_eq!(batched.detected, eager.detected, "per-process detection");
    assert_eq!(batched.tallies, eager.tallies, "per-class detection fields");
    assert_eq!(batched.false_positives(), 0);
    assert_eq!(eager.false_positives(), 0);
}

#[test]
fn run_fleet_validates_its_specs() {
    assert!(
        run_fleet_corpus(&[], 1, 1, TraceMode::Memoized, None).is_err(),
        "empty"
    );
    let mut mixed_rates = expand_fleet(2, 0, None).expect("valid fleet");
    mixed_rates[1].sampling_ppm = 1_000_000;
    assert!(
        run_fleet_corpus(&mixed_rates, 1, 1, TraceMode::Memoized, None).is_err(),
        "cells must share one rate"
    );
    let alien = vec![CampaignSpec::fleet("tar", 0)];
    assert!(
        run_fleet_corpus(&alien, 1, 1, TraceMode::Memoized, None).is_err(),
        "non-churn workloads are rejected"
    );
    let valid = expand_fleet(2, 0, None).expect("valid fleet");
    assert!(
        run_fleet_corpus(&valid, 1, 0, TraceMode::Memoized, None).is_err(),
        "zero shards are rejected"
    );
}

/// The executor's error rule on both fleet paths: replaying from an empty
/// corpus fails every recording, so the lowest-indexed cell's error wins,
/// and the fleet and the sweep report the same corpus error — naming the
/// missing file — at any thread count.
#[test]
fn fleet_and_sweep_report_the_same_missing_corpus_file() {
    let dir = std::env::temp_dir().join("safemem-fleet-empty-corpus");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let corpus = TraceCorpus::open(&dir, CorpusMode::ReplayFrom).expect("open replay");
    let specs = expand_fleet(6, 0, Some(48)).expect("valid fleet");
    let missing = corpus.path_for(&TraceKey::of(&specs[0]));
    let config = SweepConfig {
        requests: Some(48),
        rates_ppm: vec![200_000],
        sizes: vec![6],
        ..SweepConfig::default()
    };
    for threads in [1, 4] {
        let fleet = run_fleet_corpus(&specs, threads, 1, TraceMode::Memoized, Some(&corpus))
            .expect_err("nothing to replay from");
        let sweep =
            run_fleet_sweep(&config, threads, Some(&corpus)).expect_err("nothing to replay from");
        assert_eq!(fleet, sweep, "{threads} threads");
        assert!(fleet.0.contains(&*missing.to_string_lossy()), "{fleet}");
        assert!(fleet.0.contains("is missing"), "{fleet}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
