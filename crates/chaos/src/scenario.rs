//! Declarative fault schedules and their text format.
//!
//! A [`Scenario`] is an ordered list of [`ScheduledFault`]s — (virtual
//! time, [`FaultAction`]) pairs — that a protocol engine interprets
//! against its running world. The text form is line-oriented so scenario
//! files can be written by hand, diffed, and checked into `scenarios/`:
//!
//! ```text
//! # assassinate website 0's directories, then partition locality 3
//! at 2m  kill-directories website=0
//! at 4m  partition locality=3 heal-after=90s
//! at 10m link-fault loss=0.05 jitter=40ms for=2m
//! ```
//!
//! Grammar, one fault per line (`#` starts a comment, blank lines skip):
//!
//! ```text
//! at <duration> <verb> [key=value]...
//! ```
//!
//! Durations accept `ms`/`s`/`m`/`h` suffixes; a bare number is
//! milliseconds. [`Display`](fmt::Display) emits the canonical spelling
//! and every scenario round-trips: `scenario.to_string().parse()` yields
//! an equal value (property-tested in `tests/scenario_roundtrip.rs`).
//!
//! The verbs and their keys are the rows of the `fault_rows!` table in
//! this file: one row per verb gives its text, its [`FaultAction`] variant
//! and each key in print order with the field it fills, its kind and
//! whether it is required. Printing, parsing and
//! [`Scenario::check_bounds`] are all read off those rows; each variant's
//! doc says what the fault does.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// One typed fault, the unit a scenario schedules. Engines interpret
/// these against their own state (only they know which peers are
/// "directories of website 3"); `simnet`-level faults (partitions, link
/// faults) map straight onto [`simnet::LinkConditioner`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Fail-stop the current directory holders — of one website if
    /// `website` is set, and at most `count` of them if set.
    KillDirectories {
        website: Option<u32>,
        count: Option<u32>,
    },
    /// Fail-stop `count` random live peers, optionally within a locality.
    KillRandom { count: u32, locality: Option<u32> },
    /// Gracefully depart `count` random live peers (their `on_leave`
    /// handover runs, unlike a kill).
    LeaveWave { count: u32 },
    /// Flash crowd: spawn `count` peers at once, interested in `website`
    /// (random interests if unset), each living `lifetime_ms` (the churn
    /// model's mean uptime if unset).
    JoinWave {
        count: u32,
        website: Option<u32>,
        lifetime_ms: Option<u64>,
    },
    /// Cut a locality off from the rest of the network; optionally heal
    /// automatically after `heal_after_ms`.
    Partition {
        locality: u32,
        heal_after_ms: Option<u64>,
    },
    /// Heal the partition around one locality, or every partition.
    Heal { locality: Option<u32> },
    /// Degrade every link: loss and duplication are per-message
    /// probabilities, jitter adds uniform extra delay; optionally revert
    /// after `for_ms`.
    LinkFault {
        loss: f64,
        duplicate: f64,
        jitter_ms: u64,
        for_ms: Option<u64>,
    },
    /// Reset loss/duplication/jitter to zero (partitions unaffected).
    ClearLinkFault,
    /// Origin brownout: add `extra_ms` to every origin fetch — of one
    /// website if set — optionally reverting after `for_ms`.
    OriginBrownout {
        website: Option<u32>,
        extra_ms: u64,
        for_ms: Option<u64>,
    },
    /// End every origin brownout.
    OriginRestore,
}

/// A fault scheduled at a virtual time (ms since simulation start).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFault {
    pub at_ms: u64,
    pub action: FaultAction,
}

/// A deterministic fault schedule. Same scenario + same world seed ⇒
/// byte-identical trace stream (property-tested at the root crate).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    pub faults: Vec<ScheduledFault>,
}

impl Scenario {
    pub fn new() -> Scenario {
        Scenario::default()
    }

    /// Builder-style: schedule `action` at `at_ms`.
    #[must_use]
    pub fn at(mut self, at_ms: u64, action: FaultAction) -> Scenario {
        self.push(at_ms, action);
        self
    }

    /// Schedule `action` at `at_ms`.
    pub fn push(&mut self, at_ms: u64, action: FaultAction) {
        self.faults.push(ScheduledFault { at_ms, action });
    }

    pub fn len(&self) -> usize {
        self.faults.len()
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &ScheduledFault> {
        self.faults.iter()
    }

    /// Check every website and locality target against the run the
    /// scenario is about to be applied to. Engines index per-website and
    /// per-locality state with these values, so a run must reject a
    /// schedule that fails this before scheduling any of it. The error
    /// names the offending fault and the bound.
    pub fn check_bounds(&self, websites: u16, localities: u16) -> Result<(), String> {
        for fault in &self.faults {
            for (key, value) in fault.action.row().1 {
                let bound = match value {
                    Value::Website(w) if w >= u32::from(websites) => {
                        format!("the catalog has {websites} websites")
                    }
                    Value::Locality(l) if l >= u32::from(localities) => {
                        format!("the topology has {localities} localities")
                    }
                    _ => continue,
                };
                return Err(format!("`{fault}`: {key}={value} is out of range: {bound}"));
            }
        }
        Ok(())
    }

    /// Read and parse a scenario file; errors carry the path and line.
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        text.parse()
            .map_err(|e: ParseError| format!("{}:{e}", path.display()))
    }
}

// ---------------------------------------------------------------------
// Canonical text form.
// ---------------------------------------------------------------------

/// Render a duration with the largest exact unit (`0` stays `0`).
fn fmt_dur(ms: u64) -> String {
    if ms == 0 {
        "0".to_string()
    } else if ms.is_multiple_of(3_600_000) {
        format!("{}h", ms / 3_600_000)
    } else if ms.is_multiple_of(60_000) {
        format!("{}m", ms / 60_000)
    } else if ms.is_multiple_of(1_000) {
        format!("{}s", ms / 1_000)
    } else {
        format!("{ms}ms")
    }
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (verb, keys) = self.row();
        f.write_str(verb)?;
        for (key, value) in keys {
            write!(f, " {key}={value}")?;
        }
        Ok(())
    }
}

impl fmt::Display for ScheduledFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {} {}", fmt_dur(self.at_ms), self.action)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for fault in &self.faults {
            writeln!(f, "{fault}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Parser. No dependencies: split on whitespace, `key=value` pairs.
// ---------------------------------------------------------------------

/// A parse failure, pointing at the 1-based offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl FromStr for Scenario {
    type Err = ParseError;

    fn from_str(text: &str) -> Result<Scenario, ParseError> {
        let mut faults = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            faults.push(parse_line(line).map_err(|msg| ParseError { line: idx + 1, msg })?);
        }
        Ok(Scenario { faults })
    }
}

fn parse_dur(s: &str) -> Result<u64, String> {
    let (digits, mult) = if let Some(p) = s.strip_suffix("ms") {
        (p, 1)
    } else if let Some(p) = s.strip_suffix('h') {
        (p, 3_600_000)
    } else if let Some(p) = s.strip_suffix('m') {
        (p, 60_000)
    } else if let Some(p) = s.strip_suffix('s') {
        (p, 1_000)
    } else {
        (s, 1)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad duration `{s}` (want e.g. 500ms, 90s, 2m, 1h)"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("duration `{s}` overflows"))
}

fn parse_line(line: &str) -> Result<ScheduledFault, String> {
    let mut toks = line.split_whitespace();
    if toks.next() != Some("at") {
        return Err("expected `at <time> <fault> [key=value]...`".to_string());
    }
    let at_ms = parse_dur(toks.next().ok_or("missing time after `at`")?)?;
    let verb = toks.next().ok_or("missing fault verb")?;
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    for tok in toks {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got `{tok}`"))?;
        if kv.insert(k, v).is_some() {
            return Err(format!("duplicate key `{k}`"));
        }
    }
    let action = build_action(verb, &mut kv)?;
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown key `{k}` for `{verb}`"));
    }
    Ok(ScheduledFault { at_ms, action })
}

fn num<T: FromStr>(kv: &mut BTreeMap<&str, &str>, key: &str) -> Result<Option<T>, String> {
    match kv.remove(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value for `{key}`: `{v}`")),
    }
}

fn dur(kv: &mut BTreeMap<&str, &str>, key: &str) -> Result<Option<u64>, String> {
    match kv.remove(key) {
        None => Ok(None),
        Some(v) => parse_dur(v).map(Some),
    }
}

fn prob(kv: &mut BTreeMap<&str, &str>, key: &str) -> Result<Option<f64>, String> {
    match num(kv, key)? {
        Some(p) if !(0.0..=1.0).contains(&p) => {
            Err(format!("`{key}` must be a probability in [0,1], got {p}"))
        }
        p => Ok(p),
    }
}

fn require<T>(v: Option<T>, key: &str, verb: &str) -> Result<T, String> {
    v.ok_or_else(|| format!("`{verb}` requires `{key}=`"))
}

// ---------------------------------------------------------------------
// The verb table: one row per verb.
// ---------------------------------------------------------------------

/// One key's value, tagged with its kind: the kind says how the value is
/// read and printed, and which dimension of the run, if any, bounds it.
#[derive(Debug, Clone, Copy)]
enum Value {
    /// A number of peers.
    Count(u32),
    /// A website index: below the catalog's website count.
    Website(u32),
    /// A locality index: below the topology's locality count.
    Locality(u32),
    /// Milliseconds, printed by [`fmt_dur`] and read by [`parse_dur`].
    Duration(u64),
    /// A per-message probability in [0,1].
    Probability(f64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Count(n) | Value::Website(n) | Value::Locality(n) => write!(f, "{n}"),
            Value::Duration(ms) => f.write_str(&fmt_dur(ms)),
            Value::Probability(p) => write!(f, "{p}"),
        }
    }
}

/// `"verb" => Variant { "key" => field: Kind presence, ... }`, keys in
/// print order. `Kind` is a [`Value`] variant. `presence` is `required`
/// (parsing fails without the key), `optional` (an `Option` field, printed
/// when set) or `default_zero` (absent reads as zero, and zero is not
/// printed). The row generates `FaultAction::row`, which `Display` and
/// `check_bounds` read, and `build_action`, which parses. The patterns
/// and constructors name every field, so a field without a key does not
/// compile; a key's field type must match its kind and presence.
macro_rules! fault_rows {
    (@read Count, $kv:ident, $key:literal) => { num($kv, $key)? };
    (@read Website, $kv:ident, $key:literal) => { num($kv, $key)? };
    (@read Locality, $kv:ident, $key:literal) => { num($kv, $key)? };
    (@read Duration, $kv:ident, $key:literal) => { dur($kv, $key)? };
    (@read Probability, $kv:ident, $key:literal) => { prob($kv, $key)? };
    (@fill required, $v:expr, $key:literal, $verb:ident) => { require($v, $key, $verb)? };
    (@fill optional, $v:expr, $key:literal, $verb:ident) => { $v };
    (@fill default_zero, $v:expr, $key:literal, $verb:ident) => { $v.unwrap_or_default() };
    (@show required, $v:expr) => { Some($v) };
    (@show optional, $v:expr) => { $v };
    (@show default_zero, $v:expr) => { Some($v).filter(|v| *v > Default::default()) };
    ($($verb:literal => $variant:ident {
        $($key:literal => $field:ident: $kind:ident $presence:ident),* $(,)?
    }),* $(,)?) => {
        impl FaultAction {
            /// The verb's text, then each key the action prints, in order.
            fn row(&self) -> (&'static str, Vec<(&'static str, Value)>) {
                let (verb, keys): (_, Vec<Option<(&'static str, Value)>>) = match self {
                    $(FaultAction::$variant { $($field),* } => ($verb, vec![$(
                        fault_rows!(@show $presence, *$field).map(|v| ($key, Value::$kind(v)))
                    ),*]),)*
                };
                (verb, keys.into_iter().flatten().collect())
            }
        }

        fn build_action(verb: &str, kv: &mut BTreeMap<&str, &str>) -> Result<FaultAction, String> {
            match verb {
                $($verb => Ok(FaultAction::$variant {
                    $($field: fault_rows!(@fill $presence, fault_rows!(@read $kind, kv, $key), $key, verb)),*
                }),)*
                other => Err(format!("unknown fault verb `{other}`")),
            }
        }
    };
}

fault_rows! {
    "kill-directories" => KillDirectories {
        "website" => website: Website optional,
        "count" => count: Count optional,
    },
    "kill-random" => KillRandom {
        "count" => count: Count required,
        "locality" => locality: Locality optional,
    },
    "leave-wave" => LeaveWave {
        "count" => count: Count required,
    },
    "join-wave" => JoinWave {
        "count" => count: Count required,
        "website" => website: Website optional,
        "lifetime" => lifetime_ms: Duration optional,
    },
    "partition" => Partition {
        "locality" => locality: Locality required,
        "heal-after" => heal_after_ms: Duration optional,
    },
    "heal" => Heal {
        "locality" => locality: Locality optional,
    },
    "link-fault" => LinkFault {
        "loss" => loss: Probability default_zero,
        "duplicate" => duplicate: Probability default_zero,
        "jitter" => jitter_ms: Duration default_zero,
        "for" => for_ms: Duration optional,
    },
    "clear-link-fault" => ClearLinkFault {},
    "origin-brownout" => OriginBrownout {
        "extra" => extra_ms: Duration required,
        "website" => website: Website optional,
        "for" => for_ms: Duration optional,
    },
    "origin-restore" => OriginRestore {},
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn parses_the_doc_example() {
        let text = "\
# assassinate website 0's directories, then partition locality 3
at 2m  kill-directories website=0

at 4m  partition locality=3 heal-after=90s
at 10m link-fault loss=0.05 jitter=40ms for=2m
";
        let sc: Scenario = text.parse().unwrap();
        assert_eq!(sc.len(), 3);
        assert_eq!(
            sc.faults[0],
            ScheduledFault {
                at_ms: 120_000,
                action: FaultAction::KillDirectories {
                    website: Some(0),
                    count: None,
                },
            }
        );
        assert_eq!(
            sc.faults[1].action,
            FaultAction::Partition {
                locality: 3,
                heal_after_ms: Some(90_000),
            }
        );
        assert_eq!(
            sc.faults[2].action,
            FaultAction::LinkFault {
                loss: 0.05,
                duplicate: 0.0,
                jitter_ms: 40,
                for_ms: Some(120_000),
            }
        );
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        let sc = Scenario::new()
            .at(
                500,
                FaultAction::JoinWave {
                    count: 100,
                    website: Some(2),
                    lifetime_ms: Some(600_000),
                },
            )
            .at(90_000, FaultAction::LeaveWave { count: 7 })
            .at(
                3_600_000,
                FaultAction::OriginBrownout {
                    website: None,
                    extra_ms: 250,
                    for_ms: Some(30_000),
                },
            )
            .at(7_200_000, FaultAction::OriginRestore);
        let text = sc.to_string();
        assert_eq!(
            text,
            "at 500ms join-wave count=100 website=2 lifetime=10m\n\
             at 90s leave-wave count=7\n\
             at 1h origin-brownout extra=250ms for=30s\n\
             at 2h origin-restore\n"
        );
        assert_eq!(text.parse::<Scenario>().unwrap(), sc);
    }

    #[test]
    fn durations_cover_every_unit() {
        for (s, want) in [
            ("0", 0),
            ("250", 250),
            ("250ms", 250),
            ("3s", 3_000),
            ("2m", 120_000),
            ("1h", 3_600_000),
        ] {
            assert_eq!(parse_dur(s).unwrap(), want, "{s}");
        }
        assert!(parse_dur("abc").is_err());
        assert!(parse_dur("-5s").is_err());
        assert!(parse_dur("99999999999999999999h").is_err());
    }

    #[test]
    fn errors_carry_line_numbers_and_reasons() {
        let err = "at 1s kill-random\n".parse::<Scenario>().unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("requires `count="), "{err}");

        let err = "# ok\nat 1s explode\n".parse::<Scenario>().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("unknown fault verb"), "{err}");

        let err = "at 1s heal bogus=1\n".parse::<Scenario>().unwrap_err();
        assert!(err.msg.contains("unknown key `bogus`"), "{err}");

        let err = "at 1s link-fault loss=1.5\n"
            .parse::<Scenario>()
            .unwrap_err();
        assert!(err.msg.contains("probability"), "{err}");

        let err = "at 1s leave-wave count=3 count=4\n"
            .parse::<Scenario>()
            .unwrap_err();
        assert!(err.msg.contains("duplicate key"), "{err}");

        let err = "kill-random count=1\n".parse::<Scenario>().unwrap_err();
        assert!(err.msg.contains("expected `at"), "{err}");
    }

    #[test]
    fn bounds_check_names_the_fault_and_the_bound() {
        let ok: Scenario = "\
at 1m kill-directories website=9
at 2m kill-random count=2 locality=5
at 3m join-wave count=3
at 4m partition locality=0 heal-after=1m
at 5m origin-brownout extra=1s website=0
at 6m heal
"
        .parse()
        .unwrap();
        assert_eq!(ok.check_bounds(10, 6), Ok(()));
        // The same schedule against a smaller run.
        let err = ok.check_bounds(9, 6).unwrap_err();
        assert!(err.contains("kill-directories website=9"), "{err}");
        assert!(err.contains("the catalog has 9 websites"), "{err}");
        let err = ok.check_bounds(10, 5).unwrap_err();
        assert!(err.contains("kill-random count=2 locality=5"), "{err}");
        assert!(err.contains("the topology has 5 localities"), "{err}");

        // Values past u16 must not wrap into range.
        for line in [
            "at 1m join-wave count=3 website=65536",
            "at 1m origin-brownout extra=1s website=70000",
            "at 1m partition locality=65542",
            "at 1m heal locality=65536",
        ] {
            let sc: Scenario = line.parse().unwrap();
            assert!(sc.check_bounds(10, 6).is_err(), "{line}");
        }
    }

    #[test]
    fn rows_require_their_keys_and_bound_their_targets() {
        for (line, verb, key) in [
            ("at 1s kill-random locality=1", "kill-random", "count"),
            ("at 1s leave-wave", "leave-wave", "count"),
            (
                "at 1s join-wave website=1 lifetime=1m",
                "join-wave",
                "count",
            ),
            ("at 1s partition heal-after=1m", "partition", "locality"),
            (
                "at 1s origin-brownout website=1 for=1m",
                "origin-brownout",
                "extra",
            ),
        ] {
            let err = line.parse::<Scenario>().unwrap_err();
            assert_eq!(err.msg, format!("`{verb}` requires `{key}=`"), "{line}");
        }
        // Every website and locality key, one past the largest u16 bound.
        for line in [
            "at 1m kill-directories website=65536",
            "at 1m kill-random count=1 locality=65536",
            "at 1m join-wave count=1 website=65536",
            "at 1m partition locality=65536",
            "at 1m heal locality=65536",
            "at 1m origin-brownout extra=1s website=65536",
        ] {
            let sc: Scenario = line.parse().unwrap();
            let err = sc.check_bounds(u16::MAX, u16::MAX).unwrap_err();
            assert!(err.contains("=65536 is out of range"), "{line}: {err}");
        }
    }

    #[test]
    fn all_verbs_script_is_canonical_and_fits_the_smoke_grid() {
        let text = include_str!("../../../scripts/all_verbs.scenario");
        let sc: Scenario = text.parse().unwrap();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert_eq!(lines.len(), sc.len());
        for (line, fault) in lines.iter().zip(sc.iter()) {
            assert_eq!(*line, fault.to_string(), "not in canonical spelling");
        }
        let verbs: BTreeSet<&str> = sc.iter().map(|f| f.action.row().0).collect();
        assert_eq!(verbs.len(), 10, "every verb once at least: {verbs:?}");
        // `sweep --smoke`: 4 websites, the default 6 localities.
        assert_eq!(sc.check_bounds(4, 6), Ok(()));
    }

    #[test]
    fn empty_and_comment_only_input_is_an_empty_scenario() {
        let sc: Scenario = "\n# nothing here\n\n".parse().unwrap();
        assert!(sc.is_empty());
        assert_eq!(sc.to_string(), "");
    }
}
