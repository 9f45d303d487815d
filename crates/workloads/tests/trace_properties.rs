//! Property tests for trace record/replay: text-format round-tripping for
//! arbitrary traces, and behavioural equivalence between a recorded run and
//! its replay.

use proptest::prelude::*;
use safemem_core::{IncidentClass, NullTool, SafeMem};
use safemem_os::Os;
use safemem_workloads::{Trace, TraceOp};

fn trace_op() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        (
            any::<u64>(),
            proptest::collection::vec(1u64..u64::MAX, 0..5)
        )
            .prop_map(|(size, frames)| TraceOp::Malloc { size, frames }),
        (0u32..64).prop_map(|id| TraceOp::Free { id }),
        ((0u32..64), any::<i64>(), any::<u32>()).prop_map(|(id, offset, len)| TraceOp::Read {
            id,
            offset,
            len
        }),
        ((0u32..64), any::<i64>(), any::<u32>(), any::<u8>()).prop_map(
            |(id, offset, len, fill)| TraceOp::Write {
                id,
                offset,
                len,
                fill,
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(cycles, mem_accesses)| TraceOp::Compute {
            cycles,
            mem_accesses
        }),
        any::<u64>().prop_map(|ns| TraceOp::Io { ns }),
        ((0u32..64), any::<i64>(), any::<u32>())
            .prop_map(|(id, offset, len)| { TraceOp::ReadFreed { id, offset, len } }),
        ((0u32..64), any::<i64>(), any::<u32>(), any::<u8>()).prop_map(
            |(id, offset, len, fill)| TraceOp::WriteFreed {
                id,
                offset,
                len,
                fill,
            }
        ),
        (0u32..64).prop_map(|id| TraceOp::FreeAgain { id }),
        prop_oneof![
            Just(IncidentClass::Overflow),
            Just(IncidentClass::UseAfterFree),
            Just(IncidentClass::DoubleFree),
        ]
        .prop_map(|kind| TraceOp::Marker { kind }),
    ]
}

/// Maps every buffer id onto one an earlier `Malloc` bound, dropping the
/// buffer ops before the first `Malloc`: `Trace::push` refuses the rest.
fn bound_ops(ops: Vec<TraceOp>) -> Vec<TraceOp> {
    let mut bound = 0u32;
    let mut kept = Vec::with_capacity(ops.len());
    for mut op in ops {
        match &mut op {
            TraceOp::Malloc { .. } => bound += 1,
            TraceOp::Free { id }
            | TraceOp::Read { id, .. }
            | TraceOp::Write { id, .. }
            | TraceOp::ReadFreed { id, .. }
            | TraceOp::WriteFreed { id, .. }
            | TraceOp::FreeAgain { id } => {
                if bound == 0 {
                    continue;
                }
                *id %= bound;
            }
            TraceOp::Compute { .. } | TraceOp::Io { .. } | TraceOp::Marker { .. } => {}
        }
        kept.push(op);
    }
    kept
}

fn trace_of(ops: &[TraceOp]) -> Trace {
    let mut trace = Trace::new();
    for op in ops {
        trace.push(op.clone());
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any trace whose ops name only ids an earlier `Malloc` bound (the
    /// parser rejects the rest) survives a text round trip bit-exactly.
    #[test]
    fn prop_text_roundtrip(ops in proptest::collection::vec(trace_op(), 0..60)) {
        let trace = trace_of(&bound_ops(ops));
        let text = trace.to_text();
        let parsed = Trace::from_text(&text).expect("own output parses");
        prop_assert_eq!(parsed, trace);
    }

    /// The columns decode back to exactly the pushed ops — every variant,
    /// freed accesses and markers included, at full payload width — and
    /// the counts read off the columns agree with the op list.
    #[test]
    fn prop_ops_yields_exactly_the_pushed_ops(
        ops in proptest::collection::vec(trace_op(), 0..80),
    ) {
        let ops = bound_ops(ops);
        let trace = trace_of(&ops);
        prop_assert_eq!(trace.len(), ops.len());
        prop_assert_eq!(trace.ops().collect::<Vec<_>>(), ops.clone());
        let mallocs = ops.iter().filter(|op| matches!(op, TraceOp::Malloc { .. })).count();
        prop_assert_eq!(trace.malloc_count(), mallocs as u64);
        let markers: Vec<IncidentClass> = ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Marker { kind } => Some(*kind),
                _ => None,
            })
            .collect();
        prop_assert_eq!(trace.markers(), &markers[..]);
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
