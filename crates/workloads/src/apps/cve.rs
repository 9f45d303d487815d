//! The synthetic-CVE corruption arena: four deterministic corruption
//! patterns modelled on recurring CVE shapes, each emitting ground-truth
//! incident markers into the recorded trace.
//!
//! Unlike the Table 1 applications (whose single planted bug fires once per
//! run), these workloads fire their corruption on a fixed schedule, so a
//! recovery-enabled tool must detect, heal and *survive* several incidents
//! back to back. The marker ops ([`TraceOp::Marker`]) give the campaign
//! oracle exact ground truth for the survival-with-integrity scorecard:
//! which incidents happened, of which class, in which order.
//!
//! | name        | pattern                              | class          |
//! |-------------|--------------------------------------|----------------|
//! | `cve-uaf`   | read of a freed session buffer       | use after free |
//! | `cve-dfree` | second `free` of a released buffer   | double free    |
//! | `cve-obo`   | one-byte write at `buf[len]`         | overflow       |
//! | `cve-fmt`   | unchecked linear copy past the end   | overflow       |
//!
//! [`TraceOp::Marker`]: crate::TraceOp::Marker

use crate::driver::{AppSpec, BugClass, Ctx, InputMode, RunConfig, Workload};
use safemem_core::{GroupKey, IncidentClass, MemTool};
use safemem_os::Os;

/// Corruption fires on requests where `request % BUG_PERIOD == BUG_PHASE`.
const BUG_PERIOD: u64 = 8;
/// Offset within the period (avoids colliding with warm-up request 0).
const BUG_PHASE: u64 = 5;

/// Whether this request is one of the scheduled corruption points.
fn buggy_request(cfg: &RunConfig, request: u64) -> bool {
    cfg.input == InputMode::Buggy && request % BUG_PERIOD == BUG_PHASE
}

/// Shared benign request body: parse work, a scratch allocation, I/O.
fn benign_request(ctx: &mut Ctx<'_>, scratch_site: u64) {
    ctx.io(40_000);
    let scratch = ctx.alloc(scratch_site, 96);
    ctx.fill(scratch, 96, 0x20);
    ctx.work(150_000, 400);
    ctx.touch(scratch, 32);
    ctx.free(scratch);
}

/// `cve-uaf`: a connection handler that frees its session buffer, then a
/// stale pointer in the completion path reads it — the classic
/// use-after-free read shape (cf. CVE-2014-0160-style stale-buffer reads).
#[derive(Debug, Clone, Copy, Default)]
pub struct CveUaf;

const UAF_APP_ID: u64 = 9;
const UAF_SITE_SESSION: u64 = 1;
const UAF_SITE_SCRATCH: u64 = 2;
const UAF_SESSION_SIZE: u64 = 128;

impl Workload for CveUaf {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "cve-uaf",
            loc: 900,
            description: "synthetic CVE: stale read of a freed session buffer",
            bug: BugClass::UseAfterFree,
        }
    }

    fn default_requests(&self) -> u64 {
        64
    }

    fn true_leak_groups(&self) -> Vec<GroupKey> {
        Vec::new()
    }

    fn records_freed_accesses(&self) -> bool {
        true
    }

    fn run(&self, os: &mut Os, tool: &mut dyn MemTool, cfg: &RunConfig) {
        let mut ctx = Ctx::new(os, tool, UAF_APP_ID, cfg.seed);
        let requests = cfg.requests.unwrap_or_else(|| self.default_requests());
        for request in 0..requests {
            let session = ctx.alloc(UAF_SITE_SESSION, UAF_SESSION_SIZE);
            ctx.fill(session, UAF_SESSION_SIZE as usize, 0xC5);
            benign_request(&mut ctx, UAF_SITE_SCRATCH);
            ctx.free(session);
            if buggy_request(cfg, request) {
                // The stale completion callback still holds `session`.
                ctx.touch(session + 16, 8);
                ctx.mark_incident(IncidentClass::UseAfterFree);
            }
            ctx.work(60_000, 300);
        }
    }
}

/// `cve-dfree`: an error path releases a buffer the success path already
/// freed — the double-free shape (cf. CVE-2015-0240-style cleanup bugs).
#[derive(Debug, Clone, Copy, Default)]
pub struct CveDfree;

const DFREE_APP_ID: u64 = 10;
const DFREE_SITE_MSG: u64 = 1;
const DFREE_SITE_SCRATCH: u64 = 2;
const DFREE_MSG_SIZE: u64 = 192;

impl Workload for CveDfree {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "cve-dfree",
            loc: 700,
            description: "synthetic CVE: error path re-frees a released buffer",
            bug: BugClass::DoubleFree,
        }
    }

    fn default_requests(&self) -> u64 {
        64
    }

    fn true_leak_groups(&self) -> Vec<GroupKey> {
        Vec::new()
    }

    fn records_freed_accesses(&self) -> bool {
        true
    }

    fn run(&self, os: &mut Os, tool: &mut dyn MemTool, cfg: &RunConfig) {
        let mut ctx = Ctx::new(os, tool, DFREE_APP_ID, cfg.seed);
        let requests = cfg.requests.unwrap_or_else(|| self.default_requests());
        for request in 0..requests {
            let msg = ctx.alloc(DFREE_SITE_MSG, DFREE_MSG_SIZE);
            ctx.fill(msg, DFREE_MSG_SIZE as usize, 0xD0);
            benign_request(&mut ctx, DFREE_SITE_SCRATCH);
            ctx.free(msg);
            if buggy_request(cfg, request) {
                // The error path frees `msg` a second time.
                ctx.free(msg);
                ctx.mark_incident(IncidentClass::DoubleFree);
            }
            ctx.work(60_000, 300);
        }
    }
}

/// `cve-obo`: a copy loop bounded by `<=` instead of `<` writes the single
/// byte at `buf[len]` — the off-by-one shape. The record buffer fills its
/// cache line exactly, so the stray byte lands in the watched guard pad.
#[derive(Debug, Clone, Copy, Default)]
pub struct CveObo;

const OBO_APP_ID: u64 = 11;
const OBO_SITE_RECORD: u64 = 1;
const OBO_SITE_SCRATCH: u64 = 2;
/// One full cache line: `record[OBO_RECORD_SIZE]` is the guard pad's first
/// byte.
const OBO_RECORD_SIZE: u64 = 128;

impl Workload for CveObo {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "cve-obo",
            loc: 500,
            description: "synthetic CVE: off-by-one write at buf[len]",
            bug: BugClass::Overflow,
        }
    }

    fn default_requests(&self) -> u64 {
        64
    }

    fn true_leak_groups(&self) -> Vec<GroupKey> {
        Vec::new()
    }

    fn run(&self, os: &mut Os, tool: &mut dyn MemTool, cfg: &RunConfig) {
        let mut ctx = Ctx::new(os, tool, OBO_APP_ID, cfg.seed);
        let requests = cfg.requests.unwrap_or_else(|| self.default_requests());
        for request in 0..requests {
            let record = ctx.alloc(OBO_SITE_RECORD, OBO_RECORD_SIZE);
            ctx.fill(record, OBO_RECORD_SIZE as usize, 0x0B);
            benign_request(&mut ctx, OBO_SITE_SCRATCH);
            if buggy_request(cfg, request) {
                // `for (i = 0; i <= len; i++) dst[i] = …` — the last
                // iteration writes one byte past the end.
                ctx.fill(record + OBO_RECORD_SIZE, 1, 0x00);
                ctx.mark_incident(IncidentClass::Overflow);
            }
            ctx.touch(record, 64);
            ctx.free(record);
            ctx.work(60_000, 300);
        }
    }
}

/// `cve-fmt`: a format-string-style expansion overruns a fixed response
/// buffer with a long linear write (cf. `sprintf(buf, "%s", attacker)` —
/// the shape of the paper's own tar and gzip bugs, but recurring).
#[derive(Debug, Clone, Copy, Default)]
pub struct CveFmt;

const FMT_APP_ID: u64 = 12;
const FMT_SITE_RESPONSE: u64 = 1;
const FMT_SITE_SCRATCH: u64 = 2;
const FMT_RESPONSE_SIZE: u64 = 100;
/// Expanded length of the hostile request: spills well past the 128-byte
/// line rounding into the guard pad.
const FMT_HOSTILE_LEN: usize = 160;

impl Workload for CveFmt {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "cve-fmt",
            loc: 1_100,
            description: "synthetic CVE: format expansion overruns a response buffer",
            bug: BugClass::Overflow,
        }
    }

    fn default_requests(&self) -> u64 {
        64
    }

    fn true_leak_groups(&self) -> Vec<GroupKey> {
        Vec::new()
    }

    fn run(&self, os: &mut Os, tool: &mut dyn MemTool, cfg: &RunConfig) {
        let mut ctx = Ctx::new(os, tool, FMT_APP_ID, cfg.seed);
        let requests = cfg.requests.unwrap_or_else(|| self.default_requests());
        for request in 0..requests {
            let response = ctx.alloc(FMT_SITE_RESPONSE, FMT_RESPONSE_SIZE);
            let len = if buggy_request(cfg, request) {
                FMT_HOSTILE_LEN
            } else {
                (20 + ctx.rand(60)) as usize
            };
            ctx.fill(response, len, 0x25);
            if len > FMT_RESPONSE_SIZE as usize {
                ctx.mark_incident(IncidentClass::Overflow);
            }
            benign_request(&mut ctx, FMT_SITE_SCRATCH);
            ctx.touch(response, len.min(48));
            ctx.free(response);
            ctx.work(60_000, 300);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_under, RunResult};
    use crate::trace::{Recorder, TraceOp};
    use safemem_core::{BugReport, NullTool, SafeMem};

    fn buggy_cfg(requests: u64) -> RunConfig {
        RunConfig {
            input: InputMode::Buggy,
            requests: Some(requests),
            ..RunConfig::default()
        }
    }

    /// Without free-history a double free surfaces as `WildFree`; with
    /// recovery's quarantine it surfaces as `DoubleFree`. Either counts as
    /// catching the planted bug.
    fn caught_corruption(result: &RunResult) -> bool {
        result.corruption_detected()
            || result
                .reports
                .iter()
                .any(|r| matches!(r, BugReport::WildFree { .. }))
    }

    #[test]
    fn safemem_detects_every_pattern() {
        let workloads: [&dyn Workload; 4] = [&CveUaf, &CveDfree, &CveObo, &CveFmt];
        for w in workloads {
            let mut os = Os::with_defaults(1 << 25);
            let mut tool = SafeMem::builder().leak_detection(false).build(&mut os);
            let result = run_under(w, &mut os, &mut tool, &buggy_cfg(16));
            assert!(
                caught_corruption(&result),
                "{}: {:?}",
                w.spec().name,
                result.reports
            );
        }
    }

    #[test]
    fn normal_inputs_never_fault() {
        let workloads: [&dyn Workload; 4] = [&CveUaf, &CveDfree, &CveObo, &CveFmt];
        for w in workloads {
            let mut os = Os::with_defaults(1 << 25);
            let mut tool = SafeMem::builder().build(&mut os);
            let cfg = RunConfig {
                requests: Some(24),
                ..RunConfig::default()
            };
            let result = run_under(w, &mut os, &mut tool, &cfg);
            assert!(
                result.reports.is_empty(),
                "{}: {:?}",
                w.spec().name,
                result.reports
            );
        }
    }

    #[test]
    fn markers_match_the_schedule() {
        // 16 requests → requests 5 and 13 are corruption points.
        let workloads: [&dyn Workload; 4] = [&CveUaf, &CveDfree, &CveObo, &CveFmt];
        for w in workloads {
            let mut os = Os::with_defaults(1 << 25);
            let mut base = NullTool::new();
            let mut recorder = if w.records_freed_accesses() {
                Recorder::with_freed_tracking(&mut base)
            } else {
                Recorder::new(&mut base)
            };
            w.run(&mut os, &mut recorder, &buggy_cfg(16));
            let trace = recorder.into_trace();
            let markers = trace
                .ops()
                .filter(|op| matches!(op, TraceOp::Marker { .. }))
                .count();
            assert_eq!(markers, 2, "{}", w.spec().name);
        }
    }

    #[test]
    fn freed_patterns_survive_the_trace_roundtrip() {
        // Record under the oblivious baseline, replay under SafeMem: the
        // freed-access bugs must still be there (the whole point of the
        // freed-tracking recorder).
        for w in [&CveUaf as &dyn Workload, &CveDfree] {
            let mut os = Os::with_defaults(1 << 25);
            let mut base = NullTool::new();
            let mut recorder = Recorder::with_freed_tracking(&mut base);
            w.run(&mut os, &mut recorder, &buggy_cfg(16));
            let trace = recorder.into_trace();

            let mut os = Os::with_defaults(1 << 25);
            let mut tool = SafeMem::builder().leak_detection(false).build(&mut os);
            let result = trace.replay(&mut os, &mut tool);
            assert!(
                caught_corruption(&result),
                "{}: {:?}",
                w.spec().name,
                result.reports
            );
        }
    }

    #[test]
    fn recovery_heals_and_survives_each_pattern() {
        let workloads: [&dyn Workload; 4] = [&CveUaf, &CveDfree, &CveObo, &CveFmt];
        for w in workloads {
            let mut os = Os::with_defaults(1 << 25);
            let mut tool = SafeMem::builder()
                .leak_detection(false)
                .recovery(true)
                .build(&mut os);
            let result = run_under(w, &mut os, &mut tool, &buggy_cfg(16));
            assert!(result.corruption_detected(), "{}", w.spec().name);
            let survival = tool.survival().expect("recovery on");
            assert_eq!(survival.canary_violations, 0, "{}", w.spec().name);
            assert!(survival.heap_intact, "{}", w.spec().name);
            assert!(
                survival.healed_overflows + survival.healed_uafs + survival.healed_double_frees
                    >= 2,
                "{}: {survival:?}",
                w.spec().name
            );
        }
    }
}
