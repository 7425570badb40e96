//! The `run` subcommand: the parent side. It never simulates anything
//! itself — every timed, traced and check repetition and the kernel suite
//! run in a fresh child process of this binary, one after the other, so at
//! most one thread is ever busy and `peak_rss_mb` belongs to one workload.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

use crate::json::Json;
use crate::kernels;
use crate::metrics::{self, Value, Values, END_TO_END, PER_LAYER};
use crate::stats::percentile_is_resolved;
use crate::workloads::{unix_nanos, Mode, Rep, Workload};

/// The `perf` ladder's seed.
pub const DEFAULT_SEED: u64 = 47;
/// Wall-clock budget of one workload's timed repetitions, in seconds
/// (`run_seconds` of BENCHMARK.json).
pub const DEFAULT_SECONDS: u32 = 15;
/// Wall metrics are medians; fewer than three samples have no middle.
const MIN_TIMED_REPS: usize = 3;

pub struct RunOpts {
    pub seed: u64,
    pub workloads: Vec<&'static Workload>,
    /// Keep starting timed repetitions while another one fits in this.
    pub seconds: f64,
    /// `Some(false)`: end-to-end metrics only. `Some(true)`: per-layer
    /// metrics only. `None`: both.
    pub trace: Option<bool>,
    pub quick: bool,
    pub out: Option<PathBuf>,
}

/// Start `run-one` with `args` (plus the seed and `--quick`) in a fresh
/// process, wait for it, and parse the JSON line it printed last.
fn child(opts: &RunOpts, args: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .arg("run-one")
        .args(args)
        .args(["--seed", &opts.seed.to_string()])
        .args(opts.quick.then_some("--quick"))
        .args([
            "--spawned-at-ns",
            &unix_nanos(SystemTime::now()).to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!("repetition {args:?} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("repetition {args:?} printed nothing"))?;
    Json::parse(line).map_err(|e| format!("repetition {args:?} printed bad JSON: {e}"))
}

fn repetition(w: &Workload, opts: &RunOpts, mode: Mode) -> Result<Rep, String> {
    Rep::from_json(&child(
        opts,
        &["--workload", w.name, "--mode", mode.name()],
    )?)
}

fn kernel_suite(opts: &RunOpts) -> Result<kernels::Report, String> {
    kernels::Report::from_json(&child(opts, &["--kernels"])?)
}

/// A metric as reported: name, unit, value.
type Reported = (&'static str, &'static str, Value);

/// `values` in the order of `registry`, which also supplies the units.
fn ordered(
    mut values: Values,
    registry: impl Iterator<Item = (&'static str, &'static str)>,
) -> Vec<Reported> {
    registry
        .map(|(name, unit)| {
            let value = values.remove(name).expect("every registered metric");
            (name, unit, value)
        })
        .collect()
}

/// Everything one workload produced.
struct Section {
    workload: &'static Workload,
    timed: Vec<Rep>,
    check: Rep,
    /// The metric sets that were asked for, in the registry's order.
    end_to_end: Vec<Reported>,
    per_layer: Vec<Reported>,
    /// Guards that did not hold. Empty means the outputs are correct.
    problems: Vec<String>,
}

impl Section {
    fn attempted(&self) -> u64 {
        self.check.checked.map_or(0, |c| c.issued)
    }

    /// Queries that left no record: in flight at the horizon, issued by a
    /// peer that churned out first, or lost.
    fn failed(&self) -> u64 {
        self.check
            .checked
            .map_or(0, |c| c.issued.saturating_sub(c.completed))
    }
}

fn measure(
    w: &'static Workload,
    opts: &RunOpts,
    kernel_report: Option<&kernels::Report>,
) -> Result<Section, String> {
    let want_end_to_end = opts.trace != Some(true);
    let want_per_layer = opts.trace != Some(false);
    let min_reps = if want_end_to_end { MIN_TIMED_REPS } else { 1 };
    let budget = Duration::from_secs_f64(opts.seconds);

    let started = Instant::now();
    let mut timed = Vec::new();
    loop {
        let rep_started = Instant::now();
        timed.push(repetition(w, opts, Mode::Timed)?);
        // (`--quick` checks the harness; it has no use for more samples.)
        let another_fits = started.elapsed() + rep_started.elapsed() <= budget;
        let wanted = want_end_to_end && !opts.quick;
        if timed.len() >= min_reps && !(wanted && another_fits) {
            break;
        }
    }
    let traced = want_per_layer
        .then(|| repetition(w, opts, Mode::Traced))
        .transpose()?;
    let check = repetition(w, opts, Mode::Check)?;

    let mut problems = Vec::new();
    let mut guard = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    let first = &timed[0];
    for rep in timed.iter().chain(&traced).chain([&check]) {
        guard(
            rep.outcome == first.outcome,
            format!(
                "outcome digest of a {} repetition is {:016x}, not {:016x}: the run is not \
                 a function of the seed",
                rep.mode.name(),
                rep.digest(),
                first.digest()
            ),
        );
    }
    let o = &first.outcome;
    guard(
        o.queries > 0,
        "no query completed in the timed window".into(),
    );
    guard(
        opts.quick || percentile_is_resolved(o.queries as usize, 99.0),
        format!(
            "{} queries leave fewer than ten samples beyond p99",
            o.queries
        ),
    );
    let checked = check.checked.expect("check repetitions carry their counts");
    guard(
        checked.completed == o.completed,
        format!(
            "the checker matched {} completed queries but the run recorded {}",
            checked.completed, o.completed
        ),
    );
    if let Some(fold) = traced.as_ref().and_then(|t| t.fold.as_ref()) {
        guard(
            fold.unmapped.is_empty(),
            format!("labels no layer table knows: {:?}", fold.unmapped),
        );
        guard(
            fold.attributed_events() == fold.totals.events,
            format!(
                "{} of {} events attributed to a layer",
                fold.attributed_events(),
                fold.totals.events
            ),
        );
        guard(
            fold.attributed_self_ns() == fold.totals.self_ns,
            format!(
                "{} of {} ns of self time attributed to a layer",
                fold.attributed_self_ns(),
                fold.totals.self_ns
            ),
        );
        guard(
            fold.delivered() == o.messages_delivered,
            format!(
                "per-class deliveries sum to {}, the run delivered {}",
                fold.delivered(),
                o.messages_delivered
            ),
        );
    }
    if let Some(report) = kernel_report {
        for failure in &report.failures {
            guard(false, format!("kernel self-check failed: {failure}"));
        }
    }

    let end_to_end = if want_end_to_end {
        ordered(
            metrics::end_to_end(&timed, &check, w.quiet_probe_ns),
            END_TO_END.iter().map(|m| (m.name, m.unit)),
        )
    } else {
        Vec::new()
    };
    let per_layer = match &traced {
        Some(traced) => {
            let mut values = metrics::per_layer(&timed, traced, &check, w.quiet_probe_ns);
            let report = kernel_report.expect("per-layer runs carry the kernel suite");
            for &(name, value) in &report.values {
                let samples = Vec::new();
                values.insert(name, Value { value, samples });
            }
            ordered(values, PER_LAYER.iter().map(|m| (m.name, m.unit)))
        }
        None => Vec::new(),
    };
    for (name, _, v) in &end_to_end {
        guard(
            v.value.is_finite() && v.value > 0.0,
            format!("end-to-end metric {name} reads {}", v.value),
        );
    }
    Ok(Section {
        workload: w,
        timed,
        check,
        end_to_end,
        per_layer,
        problems,
    })
}

/// `{name: {value, unit}}`, plus the repetition samples when `full`.
fn values_json<'a>(values: impl Iterator<Item = &'a Reported>, full: bool) -> Json {
    let mut j = Json::obj();
    for (name, unit, v) in values {
        let mut entry = Json::obj().with("value", v.value).with("unit", *unit);
        if full && !v.samples.is_empty() {
            entry.set(
                "samples",
                v.samples.iter().map(|&s| s.into()).collect::<Vec<Json>>(),
            );
        }
        j.set(name, entry);
    }
    j
}

impl Section {
    fn metrics(&self) -> impl Iterator<Item = &Reported> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    fn print(&self, seed: u64) {
        println!("== {} (seed {seed}) ==", self.workload.name);
        println!("# {}", self.workload.knobs);
        for (name, unit, v) in self.metrics() {
            match v.range() {
                Some((lo, hi)) => println!(
                    "{name} {} {unit}  (median of {}, min {lo} max {hi})",
                    v.value,
                    v.samples.len()
                ),
                None => println!("{name} {} {unit}", v.value),
            }
        }
        println!("ops_attempted {} count", self.attempted());
        println!("ops_failed {} count", self.failed());
        println!("outcome_digest {:016x}", self.timed[0].digest());
        for p in &self.problems {
            println!("PROBLEM {p}");
        }
    }

    /// The result object the benchmark contract asks for: exactly
    /// `correct`, `attempted`, `failed` and `metrics`.
    fn result_line(&self) -> Json {
        Json::obj()
            .with("correct", self.problems.is_empty())
            .with("attempted", self.attempted().max(1))
            .with("failed", self.failed())
            .with("metrics", values_json(self.metrics(), false))
    }

    /// This workload's entry in the `--out` document.
    fn document(&self) -> Json {
        let problems: Vec<Json> = self.problems.iter().map(|p| p.as_str().into()).collect();
        let mut j = Json::obj()
            .with("name", self.workload.name)
            .with("why", self.workload.why)
            .with("knobs", self.workload.knobs)
            .with("correct", self.problems.is_empty())
            .with("problems", problems)
            .with("outcome_digest", format!("{:016x}", self.timed[0].digest()))
            .with("ops_attempted", self.attempted())
            .with("ops_failed", self.failed())
            .with("timed_repetitions", self.timed.len() as u64);
        if !self.end_to_end.is_empty() {
            j.set("end_to_end", values_json(self.end_to_end.iter(), true));
        }
        if !self.per_layer.is_empty() {
            j.set("per_layer", values_json(self.per_layer.iter(), true));
        }
        j
    }
}

/// What the benchmark leaves out on purpose.
const NOT_COVERED: [&str; 2] = [
    "an end-to-end net workload: needs a load generator and a stats API on flower-node \
     (ROADMAP item 5); the net layer gets kernel metrics only",
    "chaos scenarios: fault recovery is a correctness concern (ROADMAP item 4), not a cost \
     the evaluation grid pays",
];

/// Run the selected workloads and report. `Ok(true)` when every guard held.
pub fn run(opts: &RunOpts) -> Result<bool, String> {
    let kernel_report = (opts.trace != Some(false))
        .then(|| kernel_suite(opts))
        .transpose()?;
    let mut sections = Vec::new();
    for &w in &opts.workloads {
        let section = measure(w, opts, kernel_report.as_ref())?;
        section.print(opts.seed);
        println!("{}", section.result_line().render());
        sections.push(section);
    }
    let correct = sections.iter().all(|s| s.problems.is_empty());
    if let Some(path) = &opts.out {
        let doc = Json::obj()
            .with("schema", "repo-benchmark-v1")
            .with("seed", opts.seed)
            .with("seconds", opts.seconds)
            .with("quick", opts.quick)
            .with(
                "workloads",
                sections.iter().map(Section::document).collect::<Vec<_>>(),
            )
            .with(
                "not_covered",
                NOT_COVERED.iter().map(|&s| s.into()).collect::<Vec<Json>>(),
            )
            .with(
                "summary",
                Json::obj()
                    .with("workloads_run", sections.len() as u64)
                    .with("correct", correct)
                    .with(
                        "note",
                        "this document is a measurement of one commit; it claims no gain",
                    )
                    .with("claim", Json::Null),
            );
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("benchmark: wrote {}", path.display());
    }
    Ok(correct)
}

/// `run --list`: every metric name with its unit, without running.
pub fn list() {
    for w in &crate::workloads::WORKLOADS {
        println!("workload {}  # {}", w.name, w.knobs);
    }
    for m in &END_TO_END {
        println!(
            "end_to_end {} {}  # {} is better, bound {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        );
    }
    for m in &PER_LAYER {
        println!(
            "per_layer {} {}  # {} is better",
            m.name,
            m.unit,
            m.better.name()
        );
    }
}
