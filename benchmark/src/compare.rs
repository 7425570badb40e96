//! `compare A.json B.json`: judge document B against baseline A with the
//! registry's own bounds, one row per workload × end-to-end metric.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the baseline by more than the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Worse,
    /// Within the bound, but the repetitions of one side lie further apart
    /// than the bound: the comparison cannot tell unchanged from changed.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and how far its
/// repetitions lie apart, as a share of their median.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// How much worse `b` is than baseline `a`, as a share of `a` (negative:
/// better), and what that means under the metric's bound.
pub fn judge(m: &EndToEnd, a: Side, b: Side) -> (f64, Verdict) {
    let base = a.value.abs();
    let worse_by = match m.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let allowed = (m.bound * base).max(m.floor);
    let share = if base == 0.0 { 0.0 } else { worse_by / base };
    let verdict = if worse_by > allowed {
        Verdict::Worse
    } else if a.spread.max(b.spread) * base > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (share, verdict)
}

fn side(workload: &Json, metric: &str) -> Result<Side, String> {
    let entry = workload
        .get("end_to_end")
        .and_then(|e| e.get(metric))
        .ok_or_else(|| format!("no end-to-end metric {metric:?}"))?;
    let samples: Vec<f64> = entry
        .get("samples")
        .map(|s| s.items().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Ok(Side {
        value: entry.num("value")?,
        spread: if samples.is_empty() {
            0.0
        } else {
            spread(&samples)
        },
    })
}

/// Compare two `--out` documents. Returns the report and whether any row
/// is `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<14} {:<22} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for wa in a.get("workloads").ok_or("A has no workloads")?.items() {
        let name = wa.text("name")?;
        let Some(wb) = b
            .get("workloads")
            .ok_or("B has no workloads")?
            .items()
            .iter()
            .find(|w| w.text("name") == Ok(name))
        else {
            let _ = writeln!(out, "{name:<14} missing from B");
            continue;
        };
        for m in &END_TO_END {
            let (sa, sb) = (side(wa, m.name)?, side(wb, m.name)?);
            let (share, verdict) = judge(m, sa, sb);
            any_worse |= verdict == Verdict::Worse;
            // The change is a share of A's value, signed so that + is worse.
            let _ = writeln!(
                out,
                "{name:<14} {:<22} {:>14.6} {:>14.6} {:>+8.2}%  {}",
                m.name,
                sa.value,
                sb.value,
                share * 100.0,
                verdict.name()
            );
        }
        let same = wa.text("outcome_digest")? == wb.text("outcome_digest")?;
        let _ = writeln!(
            out,
            "{name:<14} outcome_digest {}",
            if same {
                "identical"
            } else {
                "differs: simulated behaviour changed"
            }
        );
    }
    let _ = writeln!(
        out,
        "change = how much worse B is, as a share of A (+ worse, - better)"
    );
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn exact(value: f64) -> Side {
        Side { value, spread: 0.0 }
    }

    #[test]
    fn lower_is_better_metrics_fail_upwards_only() {
        let m = metric("wall_s_per_sim_hour");
        assert_eq!(m.bound, 0.25);
        assert_eq!(judge(m, exact(10.0), exact(12.4)).1, Verdict::Ok);
        assert_eq!(judge(m, exact(10.0), exact(12.6)).1, Verdict::Worse);
        assert_eq!(judge(m, exact(10.0), exact(5.0)).1, Verdict::Ok);
        let (share, _) = judge(m, exact(10.0), exact(11.0));
        assert!((share - 0.10).abs() < 1e-12);
    }

    #[test]
    fn higher_is_better_metrics_fail_downwards_only() {
        let m = metric("queries_per_wall_s");
        assert_eq!(judge(m, exact(1000.0), exact(755.0)).1, Verdict::Ok);
        assert_eq!(judge(m, exact(1000.0), exact(745.0)).1, Verdict::Worse);
        assert_eq!(judge(m, exact(1000.0), exact(2000.0)).1, Verdict::Ok);
        let (share, _) = judge(m, exact(1000.0), exact(2000.0));
        assert_eq!(share, -1.0);
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let m = metric("setup_s");
        // 2 ms → 4 ms doubles, but 2 ms of process start is not set-up work.
        assert_eq!(judge(m, exact(0.002), exact(0.004)).1, Verdict::Ok);
        assert_eq!(judge(m, exact(1.0), exact(1.2)).1, Verdict::Ok);
        assert_eq!(judge(m, exact(1.0), exact(1.3)).1, Verdict::Worse);
    }

    #[test]
    fn wide_repetition_spread_is_unresolved_not_ok() {
        let m = metric("wall_s_per_sim_hour");
        let noisy = Side {
            value: 10.0,
            spread: 0.3,
        };
        assert_eq!(judge(m, noisy, exact(10.2)).1, Verdict::Unresolved);
        assert_eq!(judge(m, exact(10.0), noisy).1, Verdict::Unresolved);
        // A regression beyond the bound stays a regression.
        assert_eq!(judge(m, noisy, exact(13.0)).1, Verdict::Worse);
    }

    fn doc(wall: f64, samples: &[f64], digest: &str) -> Json {
        let mut e2e = Json::obj();
        for m in &END_TO_END {
            let mut entry = Json::obj().with("value", 1.0).with("unit", m.unit);
            if m.name == "wall_s_per_sim_hour" {
                entry = Json::obj().with("value", wall).with("unit", m.unit).with(
                    "samples",
                    samples.iter().map(|&s| s.into()).collect::<Vec<Json>>(),
                );
            }
            e2e.set(m.name, entry);
        }
        Json::obj().with(
            "workloads",
            vec![Json::obj()
                .with("name", "w")
                .with("outcome_digest", digest)
                .with("end_to_end", e2e)],
        )
    }

    #[test]
    fn documents_compare_row_by_row() {
        let a = doc(10.0, &[9.9, 10.0, 10.1], "aa");
        let (report, worse) = compare(&a, &a).unwrap();
        assert!(!worse);
        assert_eq!(report.matches(" ok").count(), END_TO_END.len());
        assert!(report.contains("outcome_digest identical"));

        let slow = doc(13.0, &[12.9, 13.0, 13.1], "bb");
        let (report, worse) = compare(&a, &slow).unwrap();
        assert!(worse);
        assert!(report.contains("+30.00%  worse"), "{report}");
        assert!(report.contains("differs"));

        let noisy = doc(10.0, &[8.0, 10.0, 11.5], "aa");
        let (report, worse) = compare(&a, &noisy).unwrap();
        assert!(!worse);
        assert!(report.contains("unresolved"));
    }
}
