//! Harness option parsing: one flag vocabulary for every binary, and the
//! one translation of those flags into run settings
//! ([`HarnessOpts::sweep_opts`], [`HarnessOpts::cell`],
//! [`HarnessOpts::params`]).
//!
//! [`HarnessOpts::from_args`] is the fallible core — it returns
//! `Result` so tests can exercise bad input without spawning a process —
//! and [`HarnessOpts::parse`] is the thin process-exiting wrapper the
//! binaries call.

use std::path::PathBuf;

use flower_cdn::{SimParams, System};

/// Scale selection for a harness run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scale {
    /// Table 1 of the paper.
    #[default]
    Paper,
    /// Reduced scale for smoke tests.
    Quick,
}

/// The usage message shared by every harness binary.
pub const USAGE: &str = "usage: <bin> [flags]
 every binary:
  --quick              reduced-scale run (minutes of virtual time; perf:
                       the P = 150 / 300 / 10 000 ladder, without
                       P = 50 000 / 100 000)
  --seeds SPEC         run every seed in SPEC: 'N', 'a,b,c' or 'start..end'
  --jobs N             worker threads (default: available cores; results
                       never depend on it; perf: pass 1 for quiet walls)
  --out DIR            write result files under DIR (default: results/;
                       perf: perf_runs.csv)
  --trace-out DIR      stream every run's simulation events as JSON lines
                       to DIR/<cell>_s<seed>.jsonl
  --profile-out PATH   write a BENCH-schema perf report (phase timers,
                       message accounting) of every run to PATH, labelled
                       with its file stem less 'BENCH_' (perf profiles
                       every run; elsewhere this enables the profiler)
  --scenario FILE      apply a chaos fault schedule to every run (replaces
                       a canned schedule)
  --help               print this message
 only where the binary acts on it (refused elsewhere):
  --population N       override the mean population (figures_p3000,
                       resilience, ablation_*; not table2_scalability,
                       sweep and perf, which sweep it)
  --gauges MS          sample live gauges every MS of virtual time
                       (figures_p3000: chart + fig3_gauges.csv;
                       ablation_petalup: its structure sampling period)
  --assert-recovery    turn the report into hard assertions (resilience)
  --smoke              tiny grid for CI (sweep)";

/// The flags only some binaries act on. A binary names the ones it
/// consumes ([`HarnessOpts::parse`]); the others are refused there like
/// any unknown flag instead of being parsed and dropped.
const BINARY_SPECIFIC: [&str; 4] = ["--population", "--gauges", "--assert-recovery", "--smoke"];

/// What went wrong while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptsError {
    /// `--help` was requested: print usage, exit 0.
    Help,
    /// A flag was unknown, malformed, or missing its value.
    Invalid(String),
}

impl std::fmt::Display for OptsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptsError::Help => write!(f, "{USAGE}"),
            OptsError::Invalid(msg) => write!(f, "{msg}\n{USAGE}"),
        }
    }
}

impl std::error::Error for OptsError {}

/// Command-line options shared by every harness binary; the default is
/// the flagless invocation (paper scale, nothing overridden).
#[derive(Debug, Clone, Default)]
pub struct HarnessOpts {
    pub scale: Scale,
    pub population: Option<usize>,
    /// The seeds to run (`--seeds`); each binary has its own default.
    pub seeds: Option<Vec<u64>>,
    /// Worker threads for multi-run harnesses (`--jobs`).
    pub jobs: Option<usize>,
    /// Result-file directory override (`--out`).
    pub out_dir: Option<PathBuf>,
    /// Directory for the per-run JSONL traces (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Gauge sampling period in virtual ms (`--gauges`).
    pub gauge_period_ms: Option<u64>,
    /// Enable the profiler and write a `BENCH`-schema perf report here
    /// (`--profile-out`).
    pub profile_out: Option<PathBuf>,
    /// Fault schedule to apply to every run (`--scenario`); reaches the
    /// runs through [`HarnessOpts::cell`].
    pub scenario: Option<flower_cdn::Scenario>,
    /// Fail the process unless the run demonstrates recovery
    /// (`--assert-recovery`; consumed by the `resilience` binary, where it
    /// turns the printed resilience report into hard assertions for CI).
    pub assert_recovery: bool,
    /// Tiny-grid CI mode (`--smoke`; consumed by the `sweep` binary).
    pub smoke: bool,
}

/// Parse a `--seeds` spec: either a comma list `3,5,8` or a half-open
/// range `10..15` (which expands to 10,11,12,13,14).
pub fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    if let Some((a, b)) = spec.split_once("..") {
        let start: u64 = a
            .trim()
            .parse()
            .map_err(|_| format!("--seeds: bad range start {a:?}"))?;
        let end: u64 = b
            .trim()
            .parse()
            .map_err(|_| format!("--seeds: bad range end {b:?}"))?;
        if end <= start {
            return Err(format!(
                "--seeds: range {spec:?} is empty (end must exceed start)"
            ));
        }
        Ok((start..end).collect())
    } else {
        let seeds: Vec<u64> = spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("--seeds: bad seed {s:?}"))
            })
            .collect::<Result<_, _>>()?;
        if seeds.is_empty() {
            return Err("--seeds: need at least one seed".into());
        }
        Ok(seeds)
    }
}

impl HarnessOpts {
    /// Parse explicit argument tokens (no program name) for a binary that
    /// acts on the binary-specific flags listed in `consumes`. The
    /// fallible core behind [`HarnessOpts::parse`]: unknown, malformed or
    /// unconsumed flags yield an error carrying the usage message instead
    /// of aborting the process.
    pub fn from_args<I, S>(args: I, consumes: &[&str]) -> Result<HarnessOpts, OptsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        debug_assert!(consumes.iter().all(|f| BINARY_SPECIFIC.contains(f)));
        let mut opts = HarnessOpts::default();
        let mut args = args.into_iter().map(Into::into);
        fn value(
            args: &mut impl Iterator<Item = String>,
            flag: &str,
            what: &str,
        ) -> Result<String, OptsError> {
            args.next()
                .ok_or_else(|| OptsError::Invalid(format!("{flag} needs {what}")))
        }
        fn number<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, OptsError> {
            raw.parse()
                .map_err(|_| OptsError::Invalid(format!("{flag}: {raw:?} is not a valid number")))
        }
        while let Some(a) = args.next() {
            if BINARY_SPECIFIC.contains(&a.as_str()) && !consumes.contains(&a.as_str()) {
                return Err(OptsError::Invalid(format!(
                    "{a} has no effect in this binary; try --help"
                )));
            }
            match a.as_str() {
                "--quick" => opts.scale = Scale::Quick,
                "--smoke" => opts.smoke = true,
                "--population" => {
                    let v = value(&mut args, "--population", "a value")?;
                    opts.population = Some(number(&v, "--population")?);
                }
                "--seeds" => {
                    let v = value(&mut args, "--seeds", "a list 'a,b,c' or range 'start..end'")?;
                    opts.seeds = Some(parse_seeds(&v).map_err(OptsError::Invalid)?);
                }
                "--jobs" => {
                    let v = value(&mut args, "--jobs", "a thread count")?;
                    let n: usize = number(&v, "--jobs")?;
                    if n == 0 {
                        return Err(OptsError::Invalid("--jobs must be at least 1".into()));
                    }
                    opts.jobs = Some(n);
                }
                "--out" => {
                    let v = value(&mut args, "--out", "a directory")?;
                    opts.out_dir = Some(v.into());
                }
                "--trace-out" => {
                    let v = value(&mut args, "--trace-out", "a directory")?;
                    opts.trace_out = Some(v.into());
                }
                "--gauges" => {
                    let v = value(&mut args, "--gauges", "a period in ms")?;
                    let period: u64 = number(&v, "--gauges")?;
                    if period == 0 {
                        return Err(OptsError::Invalid("--gauges must be at least 1".into()));
                    }
                    opts.gauge_period_ms = Some(period);
                }
                "--profile-out" => {
                    let v = value(&mut args, "--profile-out", "a path")?;
                    opts.profile_out = Some(v.into());
                }
                "--scenario" => {
                    let v = value(&mut args, "--scenario", "a file path")?;
                    let sc = flower_cdn::Scenario::load(&v)
                        .map_err(|e| OptsError::Invalid(format!("bad scenario {v:?}: {e}")))?;
                    opts.scenario = Some(sc);
                }
                "--assert-recovery" => opts.assert_recovery = true,
                "--help" | "-h" => return Err(OptsError::Help),
                other => {
                    return Err(OptsError::Invalid(format!(
                        "unknown flag {other}; try --help"
                    )))
                }
            }
        }
        Ok(opts)
    }

    /// Parse from `std::env::args`, printing usage and exiting on bad
    /// flags (exit 2) or `--help` (exit 0). `consumes` names the
    /// binary-specific flags the calling `main` acts on.
    pub fn parse(consumes: &[&str]) -> HarnessOpts {
        match Self::from_args(std::env::args().skip(1), consumes) {
            Ok(opts) => opts,
            Err(OptsError::Help) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(2);
            }
        }
    }

    /// The simulation parameters this invocation asks for: Table 1 at
    /// paper scale, the shared quick shape under `--quick`. `default_pop`
    /// is the population used at paper scale when none is given (300
    /// under `--quick`).
    pub fn params(&self, default_pop: usize) -> SimParams {
        match self.scale {
            Scale::Paper => SimParams::paper_defaults(self.population.unwrap_or(default_pop)),
            Scale::Quick => {
                let horizon = 2 * 3_600_000;
                let mut p = SimParams::quick(self.population.unwrap_or(300), horizon);
                p.mean_uptime_ms = horizon / 4;
                p.query_period_ms = p.mean_uptime_ms / 12;
                p.gossip_period_ms = p.mean_uptime_ms;
                p.catalog.websites = 10;
                p.catalog.active_websites = 3;
                p.catalog.objects_per_site = 200;
                p
            }
        }
    }

    /// One grid cell of this invocation, carrying the `--scenario`
    /// schedule if one was given — the one way the flag reaches a run. (A
    /// harness with a canned schedule fills `cell.scenario` only where
    /// this left it empty, so an explicit schedule replaces a canned
    /// one.) Like any other bad flag value, a schedule that targets a
    /// website or locality the run does not have exits 2 with the reason
    /// (the engine would otherwise reject it mid-sweep, inside a worker).
    pub fn cell(&self, label: impl Into<String>, system: System, params: SimParams) -> sweep::Cell {
        if let Some(sc) = &self.scenario {
            if let Err(e) = sc.check_bounds(params.catalog.websites, params.topology.localities) {
                eprintln!("--scenario does not fit this run: {e}\n{USAGE}");
                std::process::exit(2);
            }
        }
        let mut cell = sweep::Cell::new(label, system, params);
        cell.scenario = self.scenario.clone();
        cell
    }

    /// The seed list this invocation sweeps: `--seeds`, else `fallback`.
    pub fn seed_list(&self, fallback: u64) -> Vec<u64> {
        self.seed_list_n(fallback, 1)
    }

    /// Like [`seed_list`](Self::seed_list) but defaulting to the `n`
    /// consecutive seeds from `base` — for harnesses (the sweep binary)
    /// whose normal mode is multi-seed.
    pub fn seed_list_n(&self, base: u64, n: usize) -> Vec<u64> {
        match &self.seeds {
            Some(seeds) => seeds.clone(),
            None => (base..base + n as u64).collect(),
        }
    }

    /// Worker-thread count: `--jobs`, defaulting to available cores.
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(sweep::default_jobs)
    }

    /// What every run of this invocation is given — the only
    /// translation of `--jobs`, `--gauges`, `--trace-out` and
    /// `--profile-out` into run settings.
    pub fn sweep_opts(&self) -> sweep::SweepOpts {
        sweep::SweepOpts {
            jobs: self.jobs(),
            gauge_period_ms: self.gauge_period_ms,
            trace_dir: self.trace_out.clone(),
            progress: true,
            profile: self.profile_out.is_some(),
        }
    }

    /// Where result CSVs go.
    pub fn results_dir(&self) -> PathBuf {
        self.out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("results"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A binary that consumes every binary-specific flag.
    const ALL: &[&str] = &BINARY_SPECIFIC;

    #[test]
    fn paper_scale_params_match_table1() {
        let opts = HarnessOpts::default();
        let p = opts.params(3_000);
        assert_eq!(p.population, 3_000);
        assert_eq!(p.horizon_ms, 24 * 3_600_000);
        assert_eq!(p.catalog.websites, 100);
    }

    #[test]
    fn overrides_apply() {
        let opts = HarnessOpts::from_args(["--quick", "--population", "123"], ALL).unwrap();
        let p = opts.params(3_000);
        assert_eq!(p.population, 123);
        assert!(p.horizon_ms < 24 * 3_600_000);
    }

    #[test]
    fn args_parse_the_new_flags() {
        let opts =
            HarnessOpts::from_args(["--quick", "--jobs", "3", "--seeds", "4,5,6"], &[]).unwrap();
        assert_eq!(opts.scale, Scale::Quick);
        assert_eq!(opts.jobs, Some(3));
        assert_eq!(opts.seeds, Some(vec![4, 5, 6]));
        assert_eq!(opts.seed_list(0), vec![4, 5, 6]);
        assert_eq!(opts.jobs(), 3);
    }

    #[test]
    fn bad_flags_are_errors_not_aborts() {
        assert!(matches!(
            HarnessOpts::from_args(["--population", "many"], ALL),
            Err(OptsError::Invalid(_))
        ));
        assert!(matches!(
            HarnessOpts::from_args(["--frobnicate"], ALL),
            Err(OptsError::Invalid(_))
        ));
        assert!(matches!(
            HarnessOpts::from_args(["--jobs"], ALL),
            Err(OptsError::Invalid(_))
        ));
        assert!(matches!(
            HarnessOpts::from_args(["--jobs", "0"], ALL),
            Err(OptsError::Invalid(_))
        ));
        assert!(matches!(
            HarnessOpts::from_args(["--gauges", "0"], ALL),
            Err(OptsError::Invalid(_))
        ));
        assert!(matches!(
            HarnessOpts::from_args(["--help"], ALL),
            Err(OptsError::Help)
        ));
        // A binary-specific flag the binary does not consume is refused,
        // well-formed or not.
        for flag in BINARY_SPECIFIC {
            assert!(matches!(
                HarnessOpts::from_args([flag, "5"], &[]),
                Err(OptsError::Invalid(_))
            ));
        }
        let msg = OptsError::Invalid("unknown flag --x".into()).to_string();
        assert!(msg.contains("usage:"), "errors carry the usage text");
    }

    #[test]
    fn seed_specs_expand() {
        assert_eq!(parse_seeds("1,2,9").unwrap(), vec![1, 2, 9]);
        assert_eq!(parse_seeds("10..13").unwrap(), vec![10, 11, 12]);
        assert!(parse_seeds("5..5").is_err());
        assert!(parse_seeds("a,b").is_err());
    }

    #[test]
    fn seed_list_precedence() {
        let explicit = HarnessOpts {
            seeds: Some(vec![1, 2]),
            ..HarnessOpts::default()
        };
        assert_eq!(explicit.seed_list(0), vec![1, 2]);
        assert_eq!(explicit.seed_list_n(1, 3), vec![1, 2]);
        let neither = HarnessOpts::default();
        assert_eq!(neither.seed_list(42), vec![42]);
        assert_eq!(neither.seed_list_n(1, 3), vec![1, 2, 3]);
    }
}
