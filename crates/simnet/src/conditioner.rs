//! Per-link fault injection: loss, duplication, jitter and locality-scoped
//! partitions.
//!
//! Every [`World`](crate::World) owns one [`LinkConditioner`]. In its
//! default state it is inert: no RNG is consumed and every message passes
//! through untouched, so attaching (or never touching) the conditioner does
//! not perturb a run. Fault-injection engines (the `chaos` crate) flip its
//! knobs mid-run; the world consults [`LinkConditioner::judge`] once per
//! queued send.
//!
//! The conditioner carries its **own** deterministic RNG, seeded from the
//! world seed. Protocol nodes share the world RNG; giving link faults a
//! separate stream means enabling loss/jitter changes *only* which messages
//! arrive, never the protocol's own random draws — runs stay byte-for-byte
//! reproducible per (seed, scenario).
//!
//! Partition semantics: a partitioned locality is an island. Messages
//! crossing between a partitioned locality and anywhere else (including
//! another partitioned locality) are dropped; traffic within one locality
//! still flows. Messages already in flight when a partition starts are
//! delivered — link latencies are sub-second while partitions last minutes,
//! so the simplification is invisible in the metrics.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::topology::LocalityId;

/// The fate of one message crossing a conditioned link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Deliver `copies` copies (≥ 1; > 1 models duplication), each delayed
    /// by the same `extra_delay_ms` of jitter on top of the link latency.
    Deliver { copies: u32, extra_delay_ms: u64 },
    /// Lose the message (random loss or a partition cut).
    Drop,
}

/// Deterministic per-link fault model owned by a `World`.
#[derive(Debug)]
pub struct LinkConditioner {
    rng: StdRng,
    loss: f64,
    duplicate: f64,
    jitter_ms: u64,
    partitioned: BTreeSet<LocalityId>,
}

impl LinkConditioner {
    /// An inert conditioner with its own RNG stream derived from `seed`.
    pub fn new(seed: u64) -> LinkConditioner {
        LinkConditioner {
            rng: StdRng::seed_from_u64(seed ^ 0x4C49_4E4B), // "LINK"
            loss: 0.0,
            duplicate: 0.0,
            jitter_ms: 0,
            partitioned: BTreeSet::new(),
        }
    }

    /// Probability an eligible message is lost in flight.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// Probability an eligible message is delivered twice.
    pub fn duplicate(&self) -> f64 {
        self.duplicate
    }

    /// Maximum extra delivery delay (uniform in `0..=jitter_ms`).
    pub fn jitter_ms(&self) -> u64 {
        self.jitter_ms
    }

    /// Set random loss/duplication/jitter, all applied per message.
    pub fn set_faults(&mut self, loss: f64, duplicate: f64, jitter_ms: u64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        assert!(
            (0.0..=1.0).contains(&duplicate),
            "duplicate must be a probability"
        );
        self.loss = loss;
        self.duplicate = duplicate;
        self.jitter_ms = jitter_ms;
    }

    /// Reset loss/duplication/jitter to zero (partitions are untouched).
    pub fn clear_faults(&mut self) {
        self.loss = 0.0;
        self.duplicate = 0.0;
        self.jitter_ms = 0;
    }

    /// Cut `loc` off from every other locality.
    pub fn partition(&mut self, loc: LocalityId) {
        self.partitioned.insert(loc);
    }

    /// Heal the partition around `loc`.
    pub fn heal(&mut self, loc: LocalityId) {
        self.partitioned.remove(&loc);
    }

    /// Heal every partition.
    pub fn heal_all(&mut self) {
        self.partitioned.clear();
    }

    /// Localities currently cut off.
    pub fn partitioned(&self) -> impl Iterator<Item = LocalityId> + '_ {
        self.partitioned.iter().copied()
    }

    /// Whether any fault is configured. The world skips [`judge`] entirely
    /// when this is false, so the inert conditioner costs one branch per
    /// send and consumes no randomness.
    ///
    /// [`judge`]: LinkConditioner::judge
    pub fn is_active(&self) -> bool {
        self.loss > 0.0
            || self.duplicate > 0.0
            || self.jitter_ms > 0
            || !self.partitioned.is_empty()
    }

    /// Decide the fate of one message from `src_loc` to `dst_loc`.
    ///
    /// Partition cuts are checked first and draw no randomness; loss,
    /// duplication and jitter each draw only when their knob is non-zero,
    /// so the RNG stream depends only on the configured faults and the
    /// sequence of judged messages.
    pub fn judge(&mut self, src_loc: LocalityId, dst_loc: LocalityId) -> LinkVerdict {
        if src_loc != dst_loc
            && (self.partitioned.contains(&src_loc) || self.partitioned.contains(&dst_loc))
        {
            return LinkVerdict::Drop;
        }
        if self.loss > 0.0 && self.rng.gen::<f64>() < self.loss {
            return LinkVerdict::Drop;
        }
        let copies = if self.duplicate > 0.0 && self.rng.gen::<f64>() < self.duplicate {
            2
        } else {
            1
        };
        let extra_delay_ms = if self.jitter_ms > 0 {
            self.rng.gen_range(0..=self.jitter_ms)
        } else {
            0
        };
        LinkVerdict::Deliver {
            copies,
            extra_delay_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_conditioner_passes_everything_through() {
        let mut c = LinkConditioner::new(1);
        assert!(!c.is_active());
        for _ in 0..100 {
            assert_eq!(
                c.judge(LocalityId(0), LocalityId(1)),
                LinkVerdict::Deliver {
                    copies: 1,
                    extra_delay_ms: 0
                }
            );
        }
    }

    #[test]
    fn partition_cuts_cross_locality_traffic_only() {
        let mut c = LinkConditioner::new(2);
        c.partition(LocalityId(3));
        assert!(c.is_active());
        // Cross edge in either direction: cut.
        assert_eq!(c.judge(LocalityId(3), LocalityId(0)), LinkVerdict::Drop);
        assert_eq!(c.judge(LocalityId(0), LocalityId(3)), LinkVerdict::Drop);
        // Intra-island and far-side traffic flows.
        assert!(matches!(
            c.judge(LocalityId(3), LocalityId(3)),
            LinkVerdict::Deliver { .. }
        ));
        assert!(matches!(
            c.judge(LocalityId(0), LocalityId(1)),
            LinkVerdict::Deliver { .. }
        ));
        // Two partitioned localities are separate islands.
        c.partition(LocalityId(4));
        assert_eq!(c.judge(LocalityId(3), LocalityId(4)), LinkVerdict::Drop);
        c.heal(LocalityId(3));
        c.heal(LocalityId(4));
        assert!(!c.is_active());
    }

    #[test]
    fn loss_rate_is_respected_and_deterministic() {
        let run = |seed| {
            let mut c = LinkConditioner::new(seed);
            c.set_faults(0.25, 0.0, 0);
            (0..4_000)
                .filter(|_| c.judge(LocalityId(0), LocalityId(1)) == LinkVerdict::Drop)
                .count()
        };
        let dropped = run(7);
        assert!(
            (800..1_200).contains(&dropped),
            "expected ~1000/4000 drops, got {dropped}"
        );
        assert_eq!(dropped, run(7), "same seed must reproduce");
        assert_ne!(dropped, run(8), "different seed should differ");
    }

    #[test]
    fn duplication_and_jitter_apply() {
        let mut c = LinkConditioner::new(3);
        c.set_faults(0.0, 1.0, 50);
        let mut saw_jitter = false;
        for _ in 0..50 {
            match c.judge(LocalityId(0), LocalityId(0)) {
                LinkVerdict::Deliver {
                    copies,
                    extra_delay_ms,
                } => {
                    assert_eq!(copies, 2, "duplicate=1.0 must double every message");
                    assert!(extra_delay_ms <= 50);
                    saw_jitter |= extra_delay_ms > 0;
                }
                LinkVerdict::Drop => panic!("loss is zero"),
            }
        }
        assert!(saw_jitter, "jitter should show up over 50 draws");
        c.clear_faults();
        assert!(!c.is_active());
    }
}
