//! Property tests for trace record/replay: text-format round-tripping for
//! arbitrary traces, and behavioural equivalence between a recorded run and
//! its replay.

use proptest::prelude::*;
use safemem_core::{NullTool, SafeMem};
use safemem_os::Os;
use safemem_workloads::{Trace, TraceOp};

fn trace_op() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        (
            (1u64..4096),
            proptest::collection::vec(1u64..u64::MAX, 1..5)
        )
            .prop_map(|(size, frames)| TraceOp::Malloc { size, frames }),
        (0u32..64).prop_map(|id| TraceOp::Free { id }),
        ((0u32..64), (0i64..4096), (1u32..512)).prop_map(|(id, offset, len)| TraceOp::Read {
            id,
            offset,
            len
        }),
        ((0u32..64), (0i64..4096), (1u32..512), any::<u8>()).prop_map(|(id, offset, len, fill)| {
            TraceOp::Write {
                id,
                offset,
                len,
                fill,
            }
        }),
        ((1u64..1_000_000), (0u64..100_000)).prop_map(|(cycles, mem_accesses)| TraceOp::Compute {
            cycles,
            mem_accesses
        }),
        (1u64..10_000_000).prop_map(|ns| TraceOp::Io { ns }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any trace whose ops name only ids an earlier `Malloc` bound (the
    /// parser rejects the rest) survives a text round trip bit-exactly.
    #[test]
    fn prop_text_roundtrip(ops in proptest::collection::vec(trace_op(), 0..60)) {
        let mut trace = Trace::new();
        let mut bound = 0u32;
        for mut op in ops {
            match &mut op {
                TraceOp::Malloc { .. } => bound += 1,
                TraceOp::Free { id } | TraceOp::Read { id, .. } | TraceOp::Write { id, .. } => {
                    if bound == 0 {
                        continue;
                    }
                    *id %= bound;
                }
                _ => {}
            }
            trace.push(op);
        }
        let text = trace.to_text();
        let parsed = Trace::from_text(&text).expect("own output parses");
        prop_assert_eq!(parsed, trace);
    }

    /// Replaying a trace is deterministic: two replays under identical
    /// fresh tools consume identical CPU time and produce identical report
    /// counts. (Traces here are *well-formed programs*: in-bounds accesses
    /// to live buffers only.)
    #[test]
    fn prop_replay_deterministic(
        sizes in proptest::collection::vec(1u64..800, 1..12),
    ) {
        let mut trace = Trace::new();
        for (i, &size) in sizes.iter().enumerate() {
            trace.push(TraceOp::Malloc { size, frames: vec![0x400_000, i as u64] });
            trace.push(TraceOp::Write { id: i as u32, offset: 0, len: size as u32, fill: i as u8 });
            trace.push(TraceOp::Compute { cycles: 10_000, mem_accesses: 1_000 });
            trace.push(TraceOp::Read { id: i as u32, offset: 0, len: size as u32 });
            trace.push(TraceOp::Free { id: i as u32 });
        }
        let run = |trace: &Trace| {
            let mut os = Os::with_defaults(1 << 24);
            let mut tool = SafeMem::builder().build(&mut os);
            let result = trace.replay(&mut os, &mut tool);
            (result.cpu_cycles, result.reports.len())
        };
        prop_assert_eq!(run(&trace), run(&trace));
    }

    /// A well-formed trace replays cleanly under both the baseline and
    /// SafeMem (no false reports from the replay machinery itself).
    #[test]
    fn prop_clean_traces_replay_clean(
        sizes in proptest::collection::vec(1u64..800, 1..10),
    ) {
        let mut trace = Trace::new();
        for (i, &size) in sizes.iter().enumerate() {
            trace.push(TraceOp::Malloc { size, frames: vec![0x400_000, i as u64] });
            trace.push(TraceOp::Write { id: i as u32, offset: 0, len: size as u32, fill: 7 });
        }
        for i in 0..sizes.len() {
            trace.push(TraceOp::Free { id: i as u32 });
        }
        let mut os = Os::with_defaults(1 << 24);
        let mut base = NullTool::new();
        prop_assert!(trace.replay(&mut os, &mut base).reports.is_empty());
        let mut os = Os::with_defaults(1 << 24);
        let mut tool = SafeMem::builder().build(&mut os);
        let result = trace.replay(&mut os, &mut tool);
        prop_assert!(
            !result.reports.iter().any(safemem_core::BugReport::is_corruption),
            "{:?}",
            result.reports
        );
    }
}
