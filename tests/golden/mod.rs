//! The golden configuration `engine_golden` pins both systems' runs over,
//! shared with the tests that check other properties of the same run.

use flower_cdn::SimParams;

pub const HORIZON_MS: u64 = 40 * 60_000;

/// One line per dispatcher arm (peer-targeted and environment faults,
/// with and without their optional keys), spread over the 40 minutes.
pub const SCENARIO: &str = "\
at 4m kill-directories website=0
at 7m kill-random count=5 locality=2
at 10m join-wave count=12 website=1 lifetime=8m
at 12m join-wave count=6
at 14m leave-wave count=6
at 16m partition locality=3 heal-after=3m
at 22m link-fault loss=0.05 duplicate=0.02 jitter=30ms for=4m
at 28m origin-brownout extra=400ms website=0 for=5m
at 33m kill-directories count=4
";

pub fn params() -> SimParams {
    let mut p = SimParams::quick(120, HORIZON_MS);
    p.seed = 0x601D;
    // A quarter of the sessions end gracefully, so the churn schedule
    // exercises the `Leave` control event as well as `Fail`.
    p.leave_probability = 0.25;
    p
}
