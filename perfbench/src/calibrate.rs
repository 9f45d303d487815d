//! A fixed reference job that measures how fast the host runs right now,
//! so host times can be reported at a reference speed.
//!
//! A shared virtual machine's speed drifts in regimes of minutes: on a
//! 2-vCPU Xeon guest, identical `frontier` passes averaged 0.69 s in one
//! half-minute and 0.48 s four minutes later, process CPU time moving with
//! them, so the core itself ran slower rather than the process waiting. A
//! run of half a minute sits inside one regime, so no statistic over one
//! run can remove the drift. The benchmark therefore times this job
//! between its passes and divides host times by the job's pace: a
//! *reference second* is the time in which the job runs [`REF_JOBS_PER_S`]
//! times. The job is independent of the program: a change to the program
//! never changes the reference.
//!
//! The job mixes updates to an L2-resident and an L3-resident table because
//! the regimes differ in how hard they hit the shared L3, where the
//! simulator's megabytes of state live. Across the change above, updates to
//! a 1 MiB table slowed 1.24x and to an 8 MiB table 1.71x, while the passes
//! slowed 1.41x; the mix below slowed about 1.5x in that data.

use std::hint::black_box;
use std::time::Instant;

/// Words of the job's L2-resident table: 1 MiB, half this host's 2 MiB L2.
pub const NEAR_WORDS: usize = 1 << 17;

/// Words of the job's L3-resident table: 8 MiB, four times the L2, in the
/// range of the workloads' resident sets (6-25 MiB).
pub const FAR_WORDS: usize = 1 << 20;

/// Resident bytes of the job's two tables, which `peak_rss_mb` leaves out.
pub const TABLE_BYTES: usize = (NEAR_WORDS + FAR_WORDS) * 8;

/// Updates per job to the near table.
const NEAR_UPDATES: u32 = 1_200_000;

/// Updates per job to the far table.
const FAR_UPDATES: u32 = 300_000;

/// Jobs per reference second: on the 2-vCPU Xeon guest the benchmark was
/// tuned on, a job took from about 4.5 ms (fast regime) to 9 ms (slow), so
/// reference seconds read within 1.5x of host seconds there.
pub const REF_JOBS_PER_S: f64 = 150.0;

/// The reference job's tables and its timings so far.
#[derive(Debug, Clone)]
pub struct Reference {
    near: Vec<u64>,
    far: Vec<u64>,
    /// Host seconds of each job timed so far.
    pub times: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// A reference with both tables allocated and touched, so no job pays
    /// for page faults and the tables stay resident for the whole run.
    #[must_use]
    pub fn new() -> Reference {
        let mut reference = Reference {
            near: vec![0u64; NEAR_WORDS],
            far: vec![0u64; FAR_WORDS],
            times: Vec::new(),
        };
        reference.near.fill(1);
        reference.far.fill(1);
        black_box(reference.job(0));
        reference
    }

    /// One job: xorshift-indexed read-modify-writes over both tables.
    fn job(&mut self, seed: u64) -> u64 {
        rmw(&mut self.near, NEAR_UPDATES, seed) ^ rmw(&mut self.far, FAR_UPDATES, seed)
    }

    /// Times `jobs` jobs.
    pub fn sample(&mut self, jobs: usize) {
        for k in 0..jobs {
            let start = Instant::now();
            black_box(self.job(k as u64 + 1));
            self.times.push(start.elapsed().as_secs_f64());
        }
    }

    /// Host seconds of one job: the median of the jobs timed so far.
    #[must_use]
    pub fn job_s(&self) -> Option<f64> {
        crate::stats::median(&self.times)
    }

    /// `host_s` host seconds in reference seconds (`None` before any job
    /// was timed).
    #[must_use]
    pub fn to_ref(&self, host_s: f64) -> Option<f64> {
        self.job_s().map(|job_s| host_s / (job_s * REF_JOBS_PER_S))
    }
}

/// `updates` xorshift-indexed read-modify-writes over `table`, whose length
/// is a power of two. Returns a value the optimiser cannot drop.
pub fn rmw(table: &mut [u64], updates: u32, seed: u64) -> u64 {
    let mask = table.len() - 1;
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..updates {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        let v = table[i].wrapping_add(x);
        table[i] = v.rotate_left(3);
        acc ^= v;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_depend_on_seed_and_table() {
        let mut a = vec![0u64; 1 << 4];
        let mut b = vec![0u64; 1 << 4];
        assert_eq!(rmw(&mut a, 100, 7), rmw(&mut b, 100, 7));
        assert_ne!(rmw(&mut a, 100, 7), rmw(&mut b, 100, 8));
    }

    #[test]
    fn reference_seconds_scale_with_the_job_pace() {
        let mut reference = Reference::new();
        assert_eq!(reference.to_ref(1.0), None);
        reference.times = vec![1.0 / REF_JOBS_PER_S];
        assert!((reference.to_ref(2.0).unwrap() - 2.0).abs() < 1e-12);
        // A host twice as slow takes twice as long for both.
        reference.times = vec![2.0 / REF_JOBS_PER_S; 3];
        assert!((reference.to_ref(4.0).unwrap() - 2.0).abs() < 1e-12);
        reference.sample(2);
        assert_eq!(reference.times.len(), 5);
    }
}
