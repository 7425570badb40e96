//! The repository benchmark. See README.md in this directory.

mod compare;
mod json;
mod kernels;
mod layers;
mod metrics;
mod probe;
mod run;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::{RunOpts, DEFAULT_SECONDS, DEFAULT_SEED};
use workloads::{from_unix_nanos, Mode, WORKLOADS};

const USAGE: &str = "\
usage: benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--quick] [--out FILE]
       benchmark run --list
       benchmark compare A.json B.json

  run            run the workloads (all four unless --workload names one), print
                 every metric as `name value unit`, check the outputs, and end
                 with one JSON result line per workload
  --seed N       seed the inputs are built from (default 47)
  --seconds S    keep starting timed repetitions while another fits in S
                 seconds of wall clock; never fewer than three (default 15)
  --trace 0|1    0: end-to-end metrics only; 1: per-layer metrics only
                 (default: both)
  --quick        populations and kernel sizes / 10: checks that the harness
                 runs, never for numbers
  --out FILE     also write the full result document, for `compare`
  --list         print every workload and metric name without running
  compare A B    judge B against baseline A with the benchmark's bounds;
                 exits 1 if any metric is worse
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("benchmark: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Flags of `run` and of the hidden `run-one`, parsed in one place.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    list: bool,
    out: Option<PathBuf>,
    mode: Option<Mode>,
    kernels: bool,
    spawned_at_ns: Option<u128>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
        }
        match flag.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => f.seed = Some(num(flag, value()?)?),
            "--seconds" => {
                let s: f64 = num(flag, value()?)?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds: bad value {s}"));
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: bad value {other:?}")),
                })
            }
            "--quick" => f.quick = true,
            "--list" => f.list = true,
            "--out" => f.out = Some(PathBuf::from(value()?)),
            "--mode" => f.mode = Some(Mode::parse(value()?).ok_or("--mode: unknown mode")?),
            "--kernels" => f.kernels = true,
            "--spawned-at-ns" => f.spawned_at_ns = Some(num(flag, value()?)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(f)
}

fn find_workload(name: &str) -> Result<&'static workloads::Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}")
    })
}

fn cmd_run(flags: Flags) -> Result<ExitCode, String> {
    if flags.list {
        run::list();
        return Ok(ExitCode::SUCCESS);
    }
    let selected = match &flags.workload {
        Some(name) => vec![find_workload(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let opts = RunOpts {
        seed: flags.seed.unwrap_or(DEFAULT_SEED),
        workloads: selected,
        seconds: flags.seconds.unwrap_or(f64::from(DEFAULT_SECONDS)),
        trace: flags.trace,
        quick: flags.quick,
        out: flags.out,
    };
    Ok(if run::run(&opts)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One repetition (or the kernel suite) in this process; prints one JSON
/// line. Only ever started by `run`.
fn cmd_run_one(flags: Flags) -> Result<ExitCode, String> {
    let seed = flags.seed.ok_or("run-one needs --seed")?;
    let line = if flags.kernels {
        kernels::run(seed, flags.quick).to_json()
    } else {
        let w = find_workload(
            flags
                .workload
                .as_deref()
                .ok_or("run-one needs --workload")?,
        )?;
        let mode = flags.mode.ok_or("run-one needs --mode")?;
        let spawned_at =
            from_unix_nanos(flags.spawned_at_ns.ok_or("run-one needs --spawned-at-ns")?);
        w.run_rep(seed, flags.quick, mode, spawned_at).to_json()
    };
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two files".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, any_worse) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{report}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return fail("no subcommand");
    };
    let outcome = match command.as_str() {
        "run" => parse_flags(rest).and_then(cmd_run),
        "run-one" => parse_flags(rest).and_then(cmd_run_one),
        "compare" => cmd_compare(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => return fail(&format!("unknown subcommand {other}")),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => fail(&e),
    }
}
