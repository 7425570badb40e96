//! The live node's timer order — earliest deadline first, ties in arm
//! order — and its host-side failure detection.

use super::*;

/// Node 0 of a cluster at `port_base`, with seed directory `seed_dir`.
fn node(port_base: u16, seed_dir: Option<u64>) -> NetNode {
    NetNode::new(NodeConfig {
        id: 0,
        port_base,
        website: WebsiteId(0),
        locality: LocalityId(0),
        founder: false,
        seed_dir,
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
    let mut n = node(47_000, None);
    n.arm(300, FlowerTimer::GossipDeadline { gen: 3 });
    n.arm(100, FlowerTimer::GossipDeadline { gen: 1 });
    n.arm(200, FlowerTimer::GossipDeadline { gen: 2 });
    assert_eq!(due(&mut n, 99), Vec::<u64>::new());
    assert_eq!(due(&mut n, 250), vec![1, 2]);
    assert_eq!(due(&mut n, 300), vec![3]);
}

#[test]
fn equal_deadlines_fire_in_arm_order() {
    let mut n = node(47_000, None);
    for gen in [5, 1, 4, 2, 3] {
        n.arm(100, FlowerTimer::GossipDeadline { gen });
    }
    assert_eq!(due(&mut n, 100), vec![5, 1, 4, 2, 3]);
}

/// A peer whose dial is refused leaves the registry the node owns, so the
/// machine's next pick cannot name it.
#[test]
fn a_refused_dial_prunes_the_registry() {
    // Node 1 of a cluster based at port 0 is 127.0.0.1:1, where nothing
    // listens: the dial is refused at once.
    let mut n = node(0, Some(1));
    let seed = NodeId::from_index(1);
    let listed = |n: &NetNode| n.lent.registry.members().iter().any(|m| m.node == seed);
    assert!(listed(&n), "the seed directory is the node's first entry");
    n.send_peer(seed, &FlowerMsg::Keepalive { seq: 1 });
    assert!(!listed(&n), "a refused dial must prune the peer");
    assert!(n.outbound.is_empty());
}
