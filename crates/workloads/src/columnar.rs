//! The campaign replay engine: one scan over a [`Trace`]'s columns.
//!
//! Campaigns replay each recorded trace once per panel tool, so this scan is
//! the inner loop of every preset. A [`Trace`] already stores its ops as
//! struct-of-arrays columns (one op kind, slot id, offset, length and fill
//! byte per op, plus the flattened `Malloc` frames and the marker classes),
//! so the scan streams dense homogeneous columns front to back: the kind
//! drives one jump table, and nothing in the loop allocates.
//!
//! This is the one production replay engine: [`Trace::replay`], the
//! campaign oracle and every campaign runner replay through it.
//! `Trace::replay_naive` is its single reference; `tests/` replays golden
//! campaign seeds and proptest-generated synthetic traces through both and
//! asserts equal [`RunResult`]s.

use crate::driver::RunResult;
use crate::trace::{OpKind, Trace};
use safemem_core::{CallStack, MemTool};
use safemem_os::Os;

/// Flag bit marking a retired (freed) slot in the replayer's slot map. The
/// freed address is kept under the flag so freed-access ops can still
/// resolve it; heap virtual addresses never reach bit 63.
const RETIRED: u64 = 1 << 63;

/// Reusable buffers for the replay scan: a dense slot map from buffer id to
/// replay-tool address (with the retired-flag bit), and one grow-only
/// scratch payload. An access is skipped when its slot's state (live or
/// freed) is not the one its op kind names. [`Trace::push`] has already
/// checked that every id was bound, so the scan indexes the slot map
/// directly. A worker holds one replayer across every trace it replays, so
/// the scan touches the allocator only when a trace's largest access grows
/// the scratch.
#[derive(Debug, Default)]
pub struct ColumnarReplayer {
    addrs: Vec<u64>,
    scratch: Vec<u8>,
}

impl ColumnarReplayer {
    /// Creates a replayer with empty buffers.
    #[must_use]
    pub fn new() -> Self {
        ColumnarReplayer::default()
    }

    fn scratch_mut(&mut self, len: u32) -> &mut [u8] {
        let len = len as usize;
        if self.scratch.len() < len {
            self.scratch.resize(len, 0);
        }
        &mut self.scratch[..len]
    }

    /// The replay address `offset` bytes into `slot`, or `None` when the
    /// slot is live and the op expects it `freed`, or the other way round.
    fn target(&self, slot: usize, freed: bool, offset: i64) -> Option<u64> {
        let a = self.addrs[slot];
        ((a & RETIRED != 0) == freed).then(|| (a & !RETIRED).wrapping_add_signed(offset))
    }

    /// Replays a trace. Equivalent to [`Trace::replay_naive`]; the
    /// differential suites assert equal [`RunResult`]s over golden campaign
    /// seeds and proptest-generated op streams.
    pub fn replay(&mut self, trace: &Trace, os: &mut Os, tool: &mut dyn MemTool) -> RunResult {
        self.addrs.clear();
        let (mut frame_at, mut markers) = (0, trace.markers().iter());
        for i in 0..trace.len() {
            let slot = trace.slots[i] as usize;
            let (offset, len) = (trace.offsets[i], trace.lens[i]);
            match trace.kinds[i] {
                OpKind::Malloc => {
                    let frames = &trace.frames[frame_at..frame_at + len as usize];
                    frame_at += len as usize;
                    let addr = tool.malloc(os, offset as u64, &CallStack::new(frames));
                    self.addrs.push(addr);
                }
                OpKind::Free => {
                    let addr = self.addrs[slot];
                    if addr & RETIRED == 0 {
                        self.addrs[slot] = addr | RETIRED;
                        tool.free(os, addr);
                    }
                }
                OpKind::FreeAgain => {
                    if let Some(addr) = self.target(slot, true, 0) {
                        tool.free(os, addr);
                    }
                }
                kind @ (OpKind::Read | OpKind::ReadFreed) => {
                    if let Some(addr) = self.target(slot, kind == OpKind::ReadFreed, offset) {
                        tool.read(os, addr, self.scratch_mut(len));
                    }
                }
                kind @ (OpKind::Write | OpKind::WriteFreed) => {
                    if let Some(addr) = self.target(slot, kind == OpKind::WriteFreed, offset) {
                        let data = self.scratch_mut(len);
                        data.fill(trace.fills[i]);
                        tool.write(os, addr, data);
                    }
                }
                OpKind::Compute => {
                    let mem_accesses = (slot as u64) << 32 | u64::from(len);
                    tool.compute(os, offset as u64, mem_accesses);
                }
                OpKind::Io => os.io_wait_ns(offset as u64),
                OpKind::Marker => {
                    let kind = markers.next().expect("one marker class per marker op");
                    tool.mark_incident(*kind);
                }
            }
        }
        tool.finish(os);
        RunResult {
            cpu_cycles: os.cpu_cycles(),
            reports: tool.reports(),
            heap_stats: tool.heap().stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceOp;
    use safemem_core::{IncidentClass, NullTool, SafeMem};

    fn uaf_trace() -> Trace {
        let mut t = Trace::new();
        t.push(TraceOp::Malloc {
            size: 100,
            frames: vec![0x1, 0x2],
        });
        t.push(TraceOp::Write {
            id: 0,
            offset: 0,
            len: 100,
            fill: 7,
        });
        t.push(TraceOp::Compute {
            cycles: 5000,
            mem_accesses: 120,
        });
        t.push(TraceOp::Free { id: 0 });
        t.push(TraceOp::ReadFreed {
            id: 0,
            offset: 16,
            len: 8,
        });
        t.push(TraceOp::Marker {
            kind: IncidentClass::UseAfterFree,
        });
        t.push(TraceOp::FreeAgain { id: 0 });
        t.push(TraceOp::Marker {
            kind: IncidentClass::DoubleFree,
        });
        t.push(TraceOp::Io { ns: 1500 });
        t
    }

    #[test]
    fn columnar_replay_matches_naive_replay_on_freed_ops() {
        let t = uaf_trace();
        assert_eq!(t.malloc_count(), 1);
        assert_eq!(t.markers().len(), 2);
        let naive_run = {
            let mut os = Os::with_defaults(1 << 22);
            let mut tool = SafeMem::builder().leak_detection(false).build(&mut os);
            t.replay_naive(&mut os, &mut tool)
        };
        let col_run = {
            let mut os = Os::with_defaults(1 << 22);
            let mut tool = SafeMem::builder().leak_detection(false).build(&mut os);
            t.replay(&mut os, &mut tool)
        };
        assert_eq!(naive_run, col_run);
        assert!(col_run.corruption_detected());
    }

    #[test]
    fn accesses_to_freed_slots_are_skipped_without_the_flag() {
        let mut t = Trace::new();
        t.push(TraceOp::Malloc {
            size: 16,
            frames: vec![0x1],
        });
        t.push(TraceOp::Free { id: 0 });
        t.push(TraceOp::Read {
            id: 0,
            offset: 0,
            len: 8,
        });
        let mut os = Os::with_defaults(1 << 22);
        let mut tool = NullTool::new();
        let result = t.replay(&mut os, &mut tool);
        assert!(result.reports.is_empty());
    }

    #[test]
    fn replayer_reuse_across_traces_is_clean() {
        let a = uaf_trace();
        let mut b = Trace::new();
        b.push(TraceOp::Malloc {
            size: 32,
            frames: vec![0x9],
        });
        b.push(TraceOp::Write {
            id: 0,
            offset: 0,
            len: 32,
            fill: 5,
        });
        b.push(TraceOp::Free { id: 0 });
        let fresh = {
            let mut os = Os::with_defaults(1 << 22);
            let mut tool = SafeMem::builder().build(&mut os);
            b.replay(&mut os, &mut tool)
        };
        let mut r = ColumnarReplayer::new();
        let mut os = Os::with_defaults(1 << 22);
        let mut tool = SafeMem::builder().build(&mut os);
        r.replay(&a, &mut os, &mut tool);
        let mut os = Os::with_defaults(1 << 22);
        let mut tool = SafeMem::builder().build(&mut os);
        let reused = r.replay(&b, &mut os, &mut tool);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn compute_payloads_survive_wide_mem_access_counts() {
        let mut t = Trace::new();
        t.push(TraceOp::Compute {
            cycles: u64::MAX / 2,
            mem_accesses: (7u64 << 32) | 123,
        });
        let run_naive = {
            let mut os = Os::with_defaults(1 << 22);
            let mut tool = NullTool::new();
            t.replay_naive(&mut os, &mut tool)
        };
        let run_col = {
            let mut os = Os::with_defaults(1 << 22);
            let mut tool = NullTool::new();
            t.replay(&mut os, &mut tool)
        };
        assert_eq!(run_naive, run_col);
    }
}
