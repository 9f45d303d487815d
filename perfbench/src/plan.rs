//! The benchmark's workloads: what each one runs, made from `--seed`.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use safemem_core::PPM;
use safemem_faultinject::spec::{CVE_WORKLOADS, PRESET_WORKLOADS};
use safemem_faultinject::{
    expand_fleet, expand_frontier, expand_matrix, fleet_process_specs, record_campaign_trace,
    CampaignError, CampaignSpec, RecordedTrace, SweepConfig, TraceKey, FRONTIER_RATES_PPM,
    SWEEP_FLEET_SIZES,
};
use safemem_fleet::FleetConfig;

use crate::profile::{span, Layer};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The harsh preset over the five paper workloads, full panel,
    /// SafeMem always on.
    Harsh,
    /// The frontier preset: paper and CVE workloads across the sampling
    /// ladder, full panel at every rung.
    Frontier,
    /// The fleet preset: shared-machine phase A over shards, SafeMem-only
    /// phase-B cells, and the rate x size sweep.
    Fleet,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 3] = [Kind::Harsh, Kind::Frontier, Kind::Fleet];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Harsh => "harsh",
            Kind::Frontier => "frontier",
            Kind::Fleet => "fleet",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything one workload run executes. Built from the workload and the
/// seed alone, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub kind: Kind,
    /// Worker threads (and, on the fleet, phase-A shards) of the measured
    /// passes.
    pub threads: usize,
    /// Campaign seed of the first cell; every cell's seed follows from it.
    pub seed0: u64,
    /// Workloads of a matrix (harsh, frontier).
    pub workloads: Vec<String>,
    /// Seeds per workload of a matrix.
    pub seeds: u64,
    /// Sampling ladder of the frontier.
    pub rates_ppm: Vec<u32>,
    /// Request override (None = the preset's).
    pub requests: Option<u64>,
    /// Fleet size.
    pub processes: u64,
    /// Fleet sizes of the sweep.
    pub sweep_sizes: Vec<u64>,
}

/// Fleet requests per process: ten times the preset's 96, long enough that
/// one fleet run is a second of host work rather than a noisy 0.2 s.
pub const FLEET_BENCH_REQUESTS: u64 = 960;

impl Plan {
    /// The full-size workload for `seed`, on `threads` workers.
    #[must_use]
    pub fn full(kind: Kind, seed: u64, threads: usize) -> Plan {
        let paper: Vec<String> = PRESET_WORKLOADS.iter().map(|s| (*s).to_string()).collect();
        let base = Plan {
            kind,
            threads,
            seed0: 0,
            workloads: Vec::new(),
            seeds: 0,
            rates_ppm: vec![PPM],
            requests: None,
            processes: 0,
            sweep_sizes: Vec::new(),
        };
        let plan = match kind {
            Kind::Harsh => Plan {
                workloads: paper,
                seeds: 32,
                ..base
            },
            Kind::Frontier => Plan {
                workloads: paper
                    .into_iter()
                    .chain(CVE_WORKLOADS.iter().map(|s| (*s).to_string()))
                    .collect(),
                seeds: 4,
                rates_ppm: FRONTIER_RATES_PPM.to_vec(),
                ..base
            },
            Kind::Fleet => Plan {
                requests: Some(FLEET_BENCH_REQUESTS),
                processes: 256,
                sweep_sizes: SWEEP_FLEET_SIZES
                    .iter()
                    .copied()
                    .filter(|&n| n <= 256)
                    .collect(),
                ..base
            },
        };
        plan.seeded(seed)
    }

    /// A seconds-long version of `kind` for smoke tests: same code paths,
    /// a handful of short cells.
    #[must_use]
    pub fn tiny(kind: Kind, seed: u64) -> Plan {
        let plan = Plan::full(kind, 0, 2);
        let plan = match kind {
            Kind::Harsh => Plan {
                workloads: vec!["tar".into(), "gzip".into()],
                seeds: 2,
                requests: Some(24),
                ..plan
            },
            Kind::Frontier => Plan {
                workloads: vec!["tar".into(), "cve-uaf".into()],
                seeds: 1,
                rates_ppm: vec![PPM, 100_000],
                requests: Some(24),
                ..plan
            },
            Kind::Fleet => Plan {
                processes: 12,
                requests: Some(96),
                sweep_sizes: vec![4, 12],
                ..plan
            },
        };
        plan.seeded(seed)
    }

    /// Derives the first campaign seed from the run seed: consecutive run
    /// seeds get disjoint blocks of campaign seeds.
    fn seeded(self, seed: u64) -> Plan {
        let block = if self.kind == Kind::Fleet {
            self.processes
        } else {
            self.seeds
        };
        Plan {
            seed0: seed.wrapping_mul(block),
            ..self
        }
    }

    /// The campaign cells, in canonical cell order.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] for an invalid plan.
    pub fn specs(&self) -> Result<Vec<CampaignSpec>, CampaignError> {
        match self.kind {
            Kind::Harsh => expand_matrix(
                "harsh",
                &self.workloads,
                self.seeds,
                self.seed0,
                self.requests,
            ),
            Kind::Frontier => expand_frontier(
                "frontier",
                &self.rates_ppm,
                &self.workloads,
                self.seeds,
                self.seed0,
                self.requests,
            ),
            Kind::Fleet => expand_fleet(self.processes, self.seed0, self.requests),
        }
    }

    /// Phase-A fleet configuration.
    #[must_use]
    pub fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            requests: self
                .requests
                .unwrap_or(safemem_faultinject::spec::FLEET_REQUESTS),
            ..FleetConfig::default()
        }
    }

    /// The rate x size sweep configuration.
    #[must_use]
    pub fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            seed0: self.seed0,
            requests: self.requests,
            sizes: self.sweep_sizes.clone(),
            ..SweepConfig::default()
        }
    }
}

/// Each unique trace of `specs`, recorded once, with each cell's index into
/// the recorded list.
pub struct Traces {
    /// Recorded traces, in first-use order.
    pub traces: Vec<RecordedTrace>,
    /// Index into `traces` per cell.
    pub of_cell: Vec<usize>,
}

impl Traces {
    /// Records every unique [`TraceKey`] of `specs`, each recording one
    /// [`Layer::Record`] span.
    ///
    /// # Errors
    ///
    /// Returns the first recording error.
    pub fn record(specs: &[CampaignSpec]) -> Result<Traces, CampaignError> {
        let mut index: HashMap<TraceKey, usize> = HashMap::new();
        let mut traces = Vec::new();
        let mut of_cell = Vec::with_capacity(specs.len());
        for spec in specs {
            let next = index.len();
            let slot = *index.entry(TraceKey::of(spec)).or_insert(next);
            if slot == next {
                let _s = span(Layer::Record);
                traces.push(record_campaign_trace(spec)?);
            }
            of_cell.push(slot);
        }
        Ok(Traces { traces, of_cell })
    }

    /// The trace cell `i` replays.
    #[must_use]
    pub fn of(&self, i: usize) -> &RecordedTrace {
        &self.traces[self.of_cell[i]]
    }
}

/// Set-up: expand the cells, record every unique trace, and on the fleet
/// boot the phase-A fleet — everything that happens before the first cell
/// replays. Traces are recorded on the plan's worker threads through a
/// shared cursor, as the campaign runners record them. Returns the host
/// time taken.
///
/// # Errors
///
/// Returns the first expansion or recording error.
pub fn set_up(plan: &Plan) -> Result<std::time::Duration, CampaignError> {
    let start = std::time::Instant::now();
    let specs = plan.specs()?;
    let mut keys = HashSet::new();
    let unique: Vec<&CampaignSpec> = specs
        .iter()
        .filter(|spec| keys.insert(TraceKey::of(spec)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let recorded: Vec<Result<Vec<RecordedTrace>, CampaignError>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..plan.threads.clamp(1, unique.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut traces = Vec::new();
                    while let Some(spec) = unique.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        traces.push(record_campaign_trace(spec)?);
                    }
                    Ok(traces)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a recording worker panicked"))
            .collect()
    });
    let fleet = if plan.kind == Kind::Fleet {
        let processes = fleet_process_specs(&specs)?;
        Some(safemem_fleet::Fleet::boot(&processes, plan.fleet_config()))
    } else {
        None
    };
    let elapsed = start.elapsed();
    for traces in recorded {
        traces?;
    }
    drop(fleet);
    Ok(elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_match_the_documented_sizes() {
        let harsh = Plan::full(Kind::Harsh, 0, 2).specs().unwrap();
        assert_eq!(harsh.len(), 160);
        assert!(harsh.iter().all(|s| s.sampling_ppm == PPM));
        let frontier = Plan::full(Kind::Frontier, 0, 2).specs().unwrap();
        assert_eq!(frontier.len(), 216);
        let fleet = Plan::full(Kind::Fleet, 0, 2);
        assert_eq!(fleet.specs().unwrap().len(), 256);
        assert_eq!(fleet.sweep_sizes, vec![4, 16, 64, 256]);
        assert_eq!(fleet.fleet_config().requests, FLEET_BENCH_REQUESTS);
    }

    #[test]
    fn seeds_select_disjoint_campaign_seeds() {
        let a = Plan::full(Kind::Harsh, 1, 2).specs().unwrap();
        let b = Plan::full(Kind::Harsh, 2, 2).specs().unwrap();
        let max_a = a.iter().map(|s| s.seed).max().unwrap();
        let min_b = b.iter().map(|s| s.seed).min().unwrap();
        assert!(max_a < min_b);
        assert_eq!(Plan::full(Kind::Fleet, 3, 2).seed0, 3 * 256);
        assert_eq!(a, Plan::full(Kind::Harsh, 1, 2).specs().unwrap());
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("quiet"), None);
    }
}
