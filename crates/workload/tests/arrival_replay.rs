//! Lazily replayed churn arrivals are the schedule a set-up that collects
//! it would draw: for every case below, the `(arrival_ms, lifetime_ms,
//! graceful, website)` stream [`ArrivalReplay`] yields equals
//! [`generate_sessions`] followed by one `assign_interest` per arrival on
//! a second RNG of the same seed, and the caller's RNG is left where that
//! collecting set-up leaves it. The engine draws its placements and
//! spawns from that RNG next, so every seeded run rests on it.
//!
//! `PINNED` holds, per case, what the collecting set-up produced before
//! the replay existed: the arrival count, an FNV-1a digest of the
//! schedule and the draw that follows set-up. It catches a change to the
//! draw order that the comparison cannot, because both sides share
//! [`workload::Sessions`]: a set-up that no longer draws the gap which
//! lands past the horizon (the draw that ends the stream) moves every
//! pin.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use workload::{
    generate_sessions, ArrivalReplay, Catalog, CatalogConfig, ChurnConfig, Session, WebsiteId,
};

/// t=0 sessions of every case.
const INITIAL: usize = 25;

/// `(seed, horizon in sim-minutes, leave probability)`: short and long
/// horizons, an hour that ends within a few arrivals, and graceful leaves,
/// which draw once more per session and which no benchmark workload runs.
const CASES: [(u64, u64, f64); 5] = [
    (47, 30, 0.0),
    (53, 90, 0.0),
    (7, 5, 0.3),
    (11, 60, 0.5),
    (12, 1, 0.0),
];

/// Per case: arrivals after t=0, the digest of `(arrival_ms,
/// lifetime_ms, graceful)` of every session and of the website of every
/// arrival, and the caller's next `u64` after set-up, recorded from
/// `generate_sessions` + `assign_interest` as they were when the schedule
/// was collected in full.
const PINNED: [(usize, u64, u64); 5] = [
    (1_184, 0xc929_9586_37fb_2241, 0x907a_c57d_c520_5d4a),
    (3_577, 0x9371_8a4a_26ce_27b0, 0x6438_8bba_1373_c27a),
    (207, 0x45a0_0c5b_f9ab_8c75, 0xfe3b_01f5_3cfd_1d97),
    (2_423, 0x2d37_6232_3a8a_4825, 0x0c5c_e3c8_8fc7_906a),
    (36, 0x1743_3b32_3862_caf6, 0xfce1_5b08_9e66_7fda),
];

/// FNV-1a over the little-endian bytes of each value.
fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn digest(initial: &[Session], arrivals: &[Arrival]) -> u64 {
    let session = |s: &Session| [s.arrival_ms, s.lifetime_ms, u64::from(s.graceful)];
    fnv(initial.iter().flat_map(session).chain(
        arrivals
            .iter()
            .flat_map(|(s, w)| session(s).into_iter().chain([u64::from(w.0)])),
    ))
}

fn config(horizon_min: u64, leave_probability: f64) -> ChurnConfig {
    ChurnConfig {
        target_population: 400,
        mean_uptime_ms: 10 * 60_000,
        horizon_ms: horizon_min * 60_000,
        leave_probability,
    }
}

type Arrival = (Session, WebsiteId);

/// The collecting set-up: every session, then one interest per arrival.
fn collected(cfg: &ChurnConfig, catalog: &Catalog, seed: u64) -> (Vec<Session>, Vec<Arrival>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sessions = generate_sessions(cfg, INITIAL, &mut rng);
    let (initial, arrivals) = sessions.split_at(INITIAL);
    let arrivals = arrivals
        .iter()
        .map(|&s| (s, catalog.assign_interest(&mut rng)))
        .collect();
    (initial.to_vec(), arrivals, rng.next_u64())
}

#[test]
fn replayed_arrivals_are_the_collected_schedule() {
    let catalog = Catalog::new(CatalogConfig::default());
    for (&(seed, horizon_min, leave), &(arrivals, pinned_digest, next_draw)) in
        CASES.iter().zip(&PINNED)
    {
        let case = format!("seed {seed}, {horizon_min} sim-min, leave {leave}");
        let cfg = config(horizon_min, leave);
        let (want_initial, want, want_next) = collected(&cfg, &catalog, seed);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut initial = Vec::new();
        let mut replay = ArrivalReplay::draw(&cfg, INITIAL, &catalog, &mut rng, |i, s| {
            assert_eq!(i, initial.len(), "{case}: t=0 sessions in order");
            initial.push(s);
        });
        // The caller draws on before a single arrival is replayed.
        let next = rng.next_u64();
        assert_eq!(next, want_next, "{case}: the draw after set-up moved");
        assert_eq!(
            next, next_draw,
            "{case}: the draw after set-up moved from its pin"
        );
        assert_eq!(initial, want_initial, "{case}: t=0 sessions");

        assert_eq!(replay.len(), arrivals, "{case}: arrivals counted at set-up");
        let mut got = Vec::new();
        while let Some(a) = replay.next(&catalog) {
            assert_eq!(
                replay.len(),
                arrivals - got.len() - 1,
                "{case}: arrivals left"
            );
            got.push(a);
        }
        assert!(replay.is_empty() && replay.next(&catalog).is_none());
        assert_eq!(got.len(), want.len(), "{case}: arrival count");
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{case}: arrival {k}");
        }
        assert_eq!(
            digest(&initial, &got),
            pinned_digest,
            "{case}: schedule moved from its pin"
        );
        if leave > 0.0 {
            assert!(
                got.iter().any(|(s, _)| s.graceful) && got.iter().any(|(s, _)| !s.graceful),
                "{case}: both endings drawn"
            );
        }
    }
}

/// A clone of the replay, taken at any point, replays the rest of the
/// same stream (the engine keeps one; nothing else may share its RNGs).
#[test]
fn a_cloned_replay_yields_the_same_rest() {
    let catalog = Catalog::new(CatalogConfig::default());
    let cfg = config(30, 0.3);
    let mut rng = StdRng::seed_from_u64(5);
    let mut replay = ArrivalReplay::draw(&cfg, INITIAL, &catalog, &mut rng, |_, _| {});
    for _ in 0..100 {
        replay.next(&catalog);
    }
    let mut twin = replay.clone();
    let rest: Vec<Arrival> = std::iter::from_fn(|| replay.next(&catalog)).collect();
    let twin_rest: Vec<Arrival> = std::iter::from_fn(|| twin.next(&catalog)).collect();
    assert!(!rest.is_empty());
    assert_eq!(rest, twin_rest);
}
