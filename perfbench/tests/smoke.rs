//! Smoke runs of every workload at a tiny size, untraced and traced, plus
//! the checks that make a run fail.

use safemem_perfbench::plan::{Kind, Plan};
use safemem_perfbench::rebuild::{mismatches, rebuild};
use safemem_perfbench::{run, Options, END_TO_END};

fn options(trace: bool) -> Options {
    Options {
        seconds: 0.0,
        trace,
    }
}

/// Metric names `BENCHMARK.json` declares, in file order.
fn declared_names(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let declared = declared_names("end_to_end");
    let table: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
    assert_eq!(declared, table, "BENCHMARK.json and END_TO_END disagree");
    for kind in Kind::ALL {
        let outcome = run(&Plan::tiny(kind, 1), &options(false)).expect("run measures");
        assert!(outcome.correct, "{kind}: {:?}", outcome.problems);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > 0);
        assert!(!outcome.pass_walls.is_empty());
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, table, "{kind}");
        for (m, (_, unit)) in outcome.metrics.iter().zip(END_TO_END) {
            assert_eq!(m.unit, unit, "{kind} {}", m.name);
            // CPU time is read in 10 ms ticks, which a tiny pass can stay under.
            assert!(
                m.value > 0.0 || m.name == "cpu_ref_s",
                "{kind} {} reads 0",
                m.name
            );
        }
        let json = outcome.to_json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
    }
}

#[test]
fn traced_runs_reproduce_the_untraced_simulation() {
    let declared = declared_names("per_layer");
    for kind in Kind::ALL {
        let outcome = run(&Plan::tiny(kind, 0), &options(true)).expect("run measures");
        // `correct` includes the cell-for-cell identity of the traced pass
        // with its untraced twin and with the oracle.
        assert!(outcome.correct, "{kind}: {:?}", outcome.problems);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names, declared,
            "{kind}: BENCHMARK.json and the traced pass disagree"
        );
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric reported")
        };
        let coverage = value("trace.coverage_frac");
        assert!(
            (0.95..=1.0).contains(&coverage),
            "{kind}: coverage {coverage}"
        );
        assert!(value("machine.calls") > 0.0);
        assert!(value("ecc.groups_encoded") > 0.0);
        match kind {
            Kind::Fleet => {
                assert!(value("fleet.turns") > 0.0 && value("fleet.run_ms") > 0.0);
                assert_eq!(value("baselines.purify_self_ms"), 0.0);
            }
            _ => {
                assert_eq!(value("fleet.turns"), 0.0);
                assert!(value("baselines.purify_self_ms") > 0.0);
            }
        }
    }
}

#[test]
fn work_counters_repeat_exactly() {
    let plan = Plan::tiny(Kind::Harsh, 3);
    let a = run(&plan, &options(false)).expect("run measures");
    let b = run(&plan, &options(false)).expect("run measures");
    assert_eq!(a.work, b.work);
    assert!(a
        .work
        .iter()
        .any(|(name, v)| *name == "ops_replayed" && *v > 0));
    let other = run(&Plan::tiny(Kind::Harsh, 4), &options(false)).expect("run measures");
    assert_ne!(a.work, other.work, "the seed selects different inputs");
}

#[test]
fn a_traced_cell_that_drifts_is_caught() {
    let plan = Plan::tiny(Kind::Harsh, 0);
    let specs = plan.specs().expect("tiny plan expands");
    let checked = safemem_perfbench::passes::check(&plan, &specs).expect("check runs");
    let untraced = rebuild(&plan, &specs, false).expect("rebuild runs");
    let traced = rebuild(&plan, &specs, true).expect("rebuild runs");
    assert_eq!(
        mismatches(&checked.scores, None, None, &untraced, &traced),
        0
    );

    let mut drifted = traced.clone();
    drifted.cells[1][0].cpu_cycles += 1;
    assert_eq!(
        mismatches(&checked.scores, None, None, &untraced, &drifted),
        1
    );
    let mut drifted = traced.clone();
    drifted.cells[0][2].os.watch_calls += 1;
    assert_eq!(
        mismatches(&checked.scores, None, None, &untraced, &drifted),
        1
    );
    let mut short = traced;
    short.cells.pop();
    assert_eq!(
        mismatches(&checked.scores, None, None, &untraced, &short),
        1
    );
}
