//! The live node's timer order: earliest deadline first, ties in arm order.

use super::*;

fn node() -> NetNode {
    NetNode::new(NodeConfig {
        id: 0,
        port_base: 47_000,
        website: WebsiteId(0),
        locality: LocalityId(0),
        founder: false,
        seed_dir: None,
        seed_locality: LocalityId(0),
        fast: true,
        run_seed: 1,
        verbose: false,
    })
}

/// Pop every timer due at `now_ms`, as `run` does, by its `gen` tag.
fn due(n: &mut NetNode, now_ms: u64) -> Vec<u64> {
    std::iter::from_fn(|| n.pop_due(now_ms))
        .map(|t| match t {
            FlowerTimer::GossipDeadline { gen } => gen,
            other => panic!("unexpected timer {other:?}"),
        })
        .collect()
}

#[test]
fn earlier_deadlines_fire_first() {
    let mut n = node();
    n.arm(300, FlowerTimer::GossipDeadline { gen: 3 });
    n.arm(100, FlowerTimer::GossipDeadline { gen: 1 });
    n.arm(200, FlowerTimer::GossipDeadline { gen: 2 });
    assert_eq!(due(&mut n, 99), Vec::<u64>::new());
    assert_eq!(due(&mut n, 250), vec![1, 2]);
    assert_eq!(due(&mut n, 300), vec![3]);
}

#[test]
fn equal_deadlines_fire_in_arm_order() {
    let mut n = node();
    for gen in [5, 1, 4, 2, 3] {
        n.arm(100, FlowerTimer::GossipDeadline { gen });
    }
    assert_eq!(due(&mut n, 100), vec![5, 1, 4, 2, 3]);
}
