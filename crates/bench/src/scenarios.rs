//! Canned fault schedules shared by the resilience and sweep harnesses.

use chaos::{FaultAction, Scenario};
use flower_cdn::SimParams;

/// The canned resilience schedule, scaled to the run's horizon `h`:
///
/// * `h/4` — assassinate the directory layer (all of it);
/// * `h/2` — partition locality 1 from the world, heal after `h/12`;
/// * `5h/8` — flash crowd: a quarter of the mean population joins at
///   once, all interested in website 0;
/// * `3h/4` — lossy links for `h/12`: 5% loss, 1% duplication, 30 ms
///   jitter on every hop;
/// * `7h/8` — origin brownout for `h/24`: +400 ms per origin fetch.
pub fn canned_resilience_scenario(params: &SimParams) -> Scenario {
    let h = params.horizon_ms;
    Scenario::new()
        .at(
            h / 4,
            FaultAction::KillDirectories {
                website: None,
                count: None,
            },
        )
        .at(
            h / 2,
            FaultAction::Partition {
                locality: 1,
                heal_after_ms: Some(h / 12),
            },
        )
        .at(
            5 * h / 8,
            FaultAction::JoinWave {
                count: (params.population / 4).max(1) as u32,
                website: Some(0),
                lifetime_ms: None,
            },
        )
        .at(
            3 * h / 4,
            FaultAction::LinkFault {
                loss: 0.05,
                duplicate: 0.01,
                jitter_ms: 30,
                for_ms: Some(h / 12),
            },
        )
        .at(
            7 * h / 8,
            FaultAction::OriginBrownout {
                website: None,
                extra_ms: 400,
                for_ms: Some(h / 24),
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HarnessOpts;

    /// The schedule `resilience --quick` prints and runs, pinned as text.
    #[test]
    fn canned_schedule_text_is_pinned_at_the_quick_horizon() {
        let params = HarnessOpts::from_args(["--quick"], &[])
            .unwrap()
            .params(3_000);
        assert_eq!(
            canned_resilience_scenario(&params).to_string(),
            "at 30m kill-directories\n\
             at 1h partition locality=1 heal-after=10m\n\
             at 75m join-wave count=75 website=0\n\
             at 90m link-fault loss=0.05 duplicate=0.01 jitter=30ms for=10m\n\
             at 105m origin-brownout extra=400ms for=5m\n"
        );
    }
}
