//! `perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <harsh|frontier|fleet|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`). Exit status: 0 when every
//! check passed, 1 when a check failed or the run could not measure, 2 on a
//! command-line error. `--workload all` runs each workload in a child
//! process of its own, so each reports its own peak memory.

use std::process::{Command, ExitCode};

use safemem_perfbench::host::{nproc, Host};
use safemem_perfbench::plan::{Kind, Plan};
use safemem_perfbench::{run, Options};

const USAGE: &str = "usage: perfbench --workload <harsh|frontier|fleet|all> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// Worker threads of the measured passes: two, never more than the host has.
const THREADS: usize = 2;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    options: Options,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut options = Options {
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(if value == "all" {
                    None
                } else {
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                options.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        options,
    })
}

/// Runs every workload in a child process with the same flags.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for kind in Kind::ALL {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parse saw --workload");
        child_args[at + 1] = kind.name().to_string();
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("error: cannot run the {kind} workload: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = args.workload else {
        return run_all(&raw);
    };

    let threads = THREADS.min(nproc());
    let plan = Plan::full(kind, args.seed, threads);
    let host = Host::probe(threads);
    println!(
        "perfbench workload={kind} seed={} seconds={} trace={}",
        args.seed,
        args.options.seconds,
        u8::from(args.options.trace)
    );
    println!("host {}", host.to_json());
    let outcome = match run(&plan, &args.options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("work {}", outcome.work_json());
    let walls: Vec<String> = outcome
        .pass_walls
        .iter()
        .map(|w| format!("{w:.4}"))
        .collect();
    println!("pass_walls_s {}", walls.join(" "));
    for m in outcome.host_times.iter().chain(&outcome.metrics) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("cells_failed_frac {} ratio", outcome.failed_frac());
    for problem in &outcome.problems {
        eprintln!("FAIL: {problem}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
