//! The timer wheel is a drop-in replacement for the reference
//! `BinaryHeap<Reverse<(at, seq)>>` scheduler: for any interleaving of
//! schedules (same-tick, level-0, level-1 and overflow horizons), owner
//! cancellations and bounded drains, both structures yield the exact same
//! `(at, payload)` sequence. Ties on `at` are broken by `seq`, which the
//! simulator's deterministic replay relies on. Most schedules take the
//! next seq of a growing counter; some take theirs from a block reserved
//! before the first of those (`World::reserve_seqs`), so they are smaller
//! than every seq already in the wheel and land before them in their
//! bucket — in level 0, level 1 or the overflow heap.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use proptest::collection::vec;
use proptest::prelude::*;
use simnet::wheel::Wheel;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `delay` ms from the current drain point, owned by
    /// `owner` (cancellable) or unowned.
    Schedule { delay: u64, owner: Option<u8> },
    /// The same, under the next seq of the reserved block.
    ScheduleReserved { delay: u64, owner: Option<u8> },
    /// Cancel every live event owned by `owner`.
    Cancel { owner: u8 },
    /// Advance the clock by `dt` ms and pop everything due.
    Drain { dt: u64 },
}

fn delay() -> impl Strategy<Value = u64> {
    // The shim's `prop_oneof!` is unweighted; arms are repeated to bias
    // generation toward the hot ranges.
    prop_oneof![
        // Same tick and near-future: exercises the current level-0 block
        // and within-bucket tie ordering.
        0u64..8,
        0u64..8,
        0u64..5_000,
        0u64..5_000,
        // Past the level-0 block: lands in level 1, cascades on advance.
        4_000u64..200_000,
        4_000u64..200_000,
        // Past the level-1 horizon (~16.8M ms): lands in the overflow
        // heap and migrates inward as the horizon advances.
        16_900_000u64..18_000_000,
    ]
}

fn drain_dt() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..20_000_000]
}

fn op() -> impl Strategy<Value = Op> {
    let schedule = || {
        (delay(), proptest::option::of(0u8..4))
            .prop_map(|(delay, owner)| Op::Schedule { delay, owner })
    };
    let reserved = || {
        (delay(), proptest::option::of(0u8..4))
            .prop_map(|(delay, owner)| Op::ScheduleReserved { delay, owner })
    };
    let drain = || drain_dt().prop_map(|dt| Op::Drain { dt });
    prop_oneof![
        schedule(),
        schedule(),
        schedule(),
        reserved(),
        (0u8..4).prop_map(|owner| Op::Cancel { owner }),
        drain(),
        drain(),
    ]
}

/// Seqs `1..=RESERVED` are the reserved block; the counter hands out the
/// rest.
const RESERVED: u64 = 1 << 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn wheel_matches_reference_heap(ops in vec(op(), 1..80)) {
        let mut wheel: Wheel<u64> = Wheel::new();
        // Reference scheduler: (at, seq) min-heap of event ids, with
        // cancellation as a lazily-filtered id set.
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut cancelled: HashSet<u64> = HashSet::new();
        let mut by_owner: HashMap<u8, HashSet<u64>> = HashMap::new();
        let mut owner_of: HashMap<u64, u8> = HashMap::new();

        let mut now = 0u64;
        // The counter starts past the reserved block, as a world's does
        // once a block is reserved; ids are the seqs.
        let mut seq = RESERVED;
        let mut reserved = 0u64;
        let mut live = 0usize;

        for op in ops {
            match op {
                Op::Schedule { delay, owner } | Op::ScheduleReserved { delay, owner } => {
                    let id = if matches!(op, Op::Schedule { .. }) {
                        seq += 1;
                        seq
                    } else {
                        reserved += 1;
                        reserved
                    };
                    let seq = id;
                    let at = now + delay;
                    wheel.schedule(at, seq, owner.map(u32::from), id);
                    heap.push(Reverse((at, seq, id)));
                    if let Some(o) = owner {
                        by_owner.entry(o).or_default().insert(id);
                        owner_of.insert(id, o);
                    }
                    live += 1;
                }
                Op::Cancel { owner } => {
                    let removed = wheel.cancel_owned(u32::from(owner));
                    let ids = by_owner.remove(&owner).unwrap_or_default();
                    prop_assert_eq!(removed, ids.len() as u64,
                        "wheel cancelled a different number of events than the model holds");
                    live -= ids.len();
                    cancelled.extend(ids);
                }
                Op::Drain { dt } => {
                    let until = now + dt;
                    while let Some((at, id)) = wheel.pop_next(until) {
                        // The reference's next eligible event must agree.
                        let expected = loop {
                            match heap.pop() {
                                Some(Reverse((a, _, i))) if cancelled.remove(&i) => {
                                    prop_assert!(a <= until,
                                        "cancelled key past the drain bound popped early");
                                }
                                other => break other,
                            }
                        };
                        let Some(Reverse((ref_at, _, ref_id))) = expected else {
                            prop_assert!(false, "wheel popped ({at}, {id}) but reference is empty");
                            unreachable!()
                        };
                        prop_assert_eq!((at, id), (ref_at, ref_id),
                            "wheel and reference disagree on pop order");
                        prop_assert!(at <= until, "popped past the drain bound");
                        prop_assert!(at >= now, "time went backwards");
                        now = at;
                        live -= 1;
                        if let Some(o) = owner_of.remove(&id) {
                            if let Some(set) = by_owner.get_mut(&o) {
                                set.remove(&id);
                            }
                        }
                    }
                    // Wheel says nothing else is due: the reference must
                    // have no live event at or before `until` either.
                    while let Some(&Reverse((a, _, i))) = heap.peek() {
                        if cancelled.contains(&i) {
                            heap.pop();
                            cancelled.remove(&i);
                            continue;
                        }
                        prop_assert!(a > until,
                            "reference still has an event due at {a} <= {until} the wheel missed");
                        break;
                    }
                    now = until;
                }
            }
            prop_assert_eq!(wheel.live(), live, "live-entry accounting drifted");
        }

        // Final full drain: every remaining event comes out, in order.
        let mut last = (now, 0u64);
        while let Some((at, id)) = wheel.pop_next(u64::MAX) {
            let expected = loop {
                match heap.pop() {
                    Some(Reverse((_, _, i))) if cancelled.remove(&i) => {}
                    other => break other,
                }
            };
            let Some(Reverse((ref_at, ref_seq, ref_id))) = expected else {
                prop_assert!(false, "wheel popped ({at}, {id}) but reference is empty");
                unreachable!()
            };
            prop_assert_eq!((at, id), (ref_at, ref_id));
            prop_assert!((at, ref_seq) >= last, "final drain out of (at, seq) order");
            last = (at, ref_seq);
        }
        while let Some(Reverse((_, _, i))) = heap.pop() {
            prop_assert!(cancelled.remove(&i),
                "reference holds a live event the wheel never delivered");
        }
        prop_assert_eq!(wheel.live(), 0);
    }
}
