//! Thread-scaling microbenchmark for the sharded campaign runner: the same
//! small harsh matrix at 1, 2, and 4 workers, so a change in pool overhead
//! is visible from `cargo bench` output. End-to-end throughput of
//! `safemem-campaign`'s presets is measured by `perfbench` (see
//! `perfbench/README.md`), the repository's one comparable benchmark.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use safemem_faultinject::{expand_matrix, run_matrix_with, CampaignSpec, TraceMode};

/// A matrix small enough for `cargo bench` to stay in seconds but large
/// enough (8 cells) that sharding has work to distribute.
fn bench_specs() -> Vec<CampaignSpec> {
    let workloads = vec!["ypserv2".to_string(), "tar".to_string()];
    expand_matrix("harsh", &workloads, 4, 0, Some(48)).expect("valid matrix")
}

fn bench_campaign_matrix(c: &mut Criterion) {
    let specs = bench_specs();
    for threads in [1usize, 2, 4] {
        c.bench_function(&format!("campaign/harsh_8cells_t{threads}"), |b| {
            b.iter_custom(|iters| {
                let start = Instant::now();
                for _ in 0..iters {
                    let report = run_matrix_with(black_box(&specs), threads, TraceMode::Memoized)
                        .expect("matrix runs");
                    assert_eq!(report.results.len(), specs.len());
                    black_box(report);
                }
                start.elapsed()
            });
        });
    }
}

fn bench_single_campaign(c: &mut Criterion) {
    // The per-cell cost the pool amortises — useful for spotting whether a
    // scaling regression is pool overhead or the campaigns themselves.
    let spec = &bench_specs()[0];
    c.bench_function("campaign/single_cell", |b| {
        b.iter_custom(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(safemem_faultinject::run_campaign(black_box(spec)).expect("runs"));
            }
            start.elapsed()
        });
    });
}

criterion_group!(benches, bench_campaign_matrix, bench_single_campaign);
criterion_main!(benches);
