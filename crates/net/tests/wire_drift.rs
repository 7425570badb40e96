//! `FlowerMsg::wire_bytes` (the profiler's per-class overhead estimates,
//! introduced with the observability layer) against the real codec.
//!
//! The estimates predate the codec; this test pins them to ground truth
//! so they cannot drift silently. Tolerance: for every representative
//! message the estimate must be within a factor of two of the encoded
//! frame size (length prefix and header included), plus the modelled
//! object body for `FetchOk` — the codec ships the object *identifier*
//! while the estimate deliberately charges the ~4 KiB the object body
//! itself would occupy on a real wire.

use std::sync::Arc;

use bloom::BloomFilter;
use chord::{ChordId, ChordMsg, NodeRef, StepResult};
use flower_net::wire::{encode_frame, peer_frame_len, Frame};
use flower_proto::{
    DirInfo, DirPosition, DirectorySnapshot, FlowerMsg, QueryId, RoutePayload, Summary,
};
use gossip::{Entry, GossipMsg};
use simnet::{LocalityId, NodeId};
use workload::{ObjectId, WebsiteId};

fn node(i: usize) -> NodeId {
    NodeId::from_index(i)
}

fn node_ref(i: usize) -> NodeRef {
    NodeRef::new(node(i), ChordId(i as u64 * 7919))
}

fn object(rank: u16) -> ObjectId {
    ObjectId {
        website: WebsiteId(3),
        rank,
    }
}

fn qid() -> QueryId {
    QueryId::new(node(11), 42)
}

fn position() -> DirPosition {
    DirPosition::new(WebsiteId(3), LocalityId(2), 0)
}

fn dir() -> DirInfo {
    DirInfo::fresh(position(), node_ref(9))
}

fn summary() -> Summary {
    // The size every live peer actually gossips: a filter sized for the
    // paper's 500-objects-per-site catalog.
    let mut s = BloomFilter::with_rate(500, 0.01);
    for i in 0..40 {
        s.insert(i * 131);
    }
    Arc::new(s)
}

fn view(n: usize) -> Vec<(NodeId, Summary)> {
    (0..n).map(|i| (node(20 + i), summary())).collect()
}

/// The object body the `FetchOk` estimate models but the codec does not
/// carry (objects are identifiers in this reproduction).
fn modelled_body(msg: &FlowerMsg) -> usize {
    match msg {
        FlowerMsg::FetchOk { .. } => 4096,
        _ => 0,
    }
}

fn representatives() -> Vec<FlowerMsg> {
    vec![
        FlowerMsg::Chord(ChordMsg::FindNext {
            key: ChordId(55),
            token: 1,
            from: node_ref(1),
        }),
        FlowerMsg::Chord(ChordMsg::FindNextReply {
            token: 1,
            result: StepResult::Forward(node_ref(2)),
        }),
        FlowerMsg::Chord(ChordMsg::NeighborsReply {
            gen: 3,
            sender: node_ref(1),
            predecessor: Some(node_ref(2)),
            successors: vec![node_ref(3), node_ref(4)],
        }),
        FlowerMsg::DRingRoute {
            key: ChordId(55),
            payload: RoutePayload::ClientRequest {
                client: node(5),
                website: WebsiteId(3),
                locality: LocalityId(2),
                object: Some(object(7)),
                qid: qid(),
            },
        },
        FlowerMsg::Routed {
            key: ChordId(55),
            payload: RoutePayload::Claim {
                claimer: node(5),
                position: position(),
            },
            hops: 3,
        },
        FlowerMsg::RouteFailed { req_qid: qid() },
        FlowerMsg::Redirect {
            qid: qid(),
            object: Some(object(7)),
            provider: Some(node(8)),
            dir: dir(),
            petal_view: view(3),
            dht_hops: 2,
        },
        FlowerMsg::DirQuery {
            qid: qid(),
            object: object(7),
            exclude: vec![node(1), node(2)],
        },
        FlowerMsg::SiblingQuery {
            client: node(5),
            qid: qid(),
            object: object(7),
            dir: dir(),
            petal_view: view(2),
            exclude: vec![node(1)],
            ttl: 4,
        },
        FlowerMsg::DeadPeerReport { peer: node(5) },
        FlowerMsg::Retract {
            objects: (0..6).map(object).collect(),
        },
        FlowerMsg::ClaimGranted {
            position: position(),
            seed: node_ref(2),
        },
        FlowerMsg::ClaimDenied {
            position: position(),
            holder: node_ref(2),
        },
        FlowerMsg::Fetch {
            qid: qid(),
            object: object(7),
        },
        FlowerMsg::FetchOk {
            qid: qid(),
            object: object(7),
        },
        FlowerMsg::FetchMiss {
            qid: qid(),
            object: object(7),
        },
        FlowerMsg::Gossip {
            inner: GossipMsg::ShuffleReq {
                entries: (0..5)
                    .map(|i| Entry {
                        node: node(30 + i),
                        age: i as u32,
                        payload: summary(),
                    })
                    .collect(),
            },
            dir_info: Some(dir()),
        },
        FlowerMsg::Keepalive { seq: 9 },
        FlowerMsg::Push {
            seq: 9,
            objects: (0..10).map(object).collect(),
            full: false,
        },
        FlowerMsg::DirAck { seq: 9, dir: dir() },
        FlowerMsg::Promote {
            position: position(),
            seed: node_ref(2),
            snapshot: Some(DirectorySnapshot {
                entries: (0..4)
                    .map(|i| (node(40 + i), (0..8).map(object).collect(), 1_000))
                    .collect(),
            }),
        },
    ]
}

#[test]
fn estimates_match_codec_within_2x() {
    let mut failures = Vec::new();
    for msg in representatives() {
        let est = msg.wire_bytes();
        let real = peer_frame_len(&msg) + modelled_body(&msg);
        let lo = real / 2;
        let hi = real * 2;
        if est < lo || est > hi {
            failures.push(format!(
                "{}: estimate {est} outside [{lo}, {hi}] (encoded {real})",
                msg.class()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "wire_bytes estimates drifted from the codec:\n{}",
        failures.join("\n")
    );
}

/// The heap-payload terms must scale: a bigger petal view or object list
/// must grow the estimate roughly like it grows the encoding.
#[test]
fn estimates_scale_with_payload() {
    let small = FlowerMsg::Redirect {
        qid: qid(),
        object: Some(object(7)),
        provider: Some(node(8)),
        dir: dir(),
        petal_view: view(1),
        dht_hops: 2,
    };
    let large = FlowerMsg::Redirect {
        qid: qid(),
        object: Some(object(7)),
        provider: Some(node(8)),
        dir: dir(),
        petal_view: view(9),
        dht_hops: 2,
    };
    let est_growth = large.wire_bytes() - small.wire_bytes();
    let real_growth = peer_frame_len(&large) - peer_frame_len(&small);
    let ratio = est_growth as f64 / real_growth as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "view growth mispriced: estimate grew {est_growth}, encoding grew {real_growth}"
    );

    let push_small = FlowerMsg::Push {
        seq: 1,
        objects: (0..2).map(object).collect(),
        full: false,
    };
    let push_large = FlowerMsg::Push {
        seq: 1,
        objects: (0..100).map(object).collect(),
        full: false,
    };
    let est_growth = push_large.wire_bytes() - push_small.wire_bytes();
    let real_growth = peer_frame_len(&push_large) - peer_frame_len(&push_small);
    let ratio = est_growth as f64 / real_growth as f64;
    assert!(
        (0.5..2.5).contains(&ratio),
        "object-list growth mispriced: estimate grew {est_growth}, encoding grew {real_growth}"
    );
}

/// The one empty summary all empty stores share is, on the wire and in the
/// estimate, the empty filter every peer used to build for itself: sharing
/// it cannot move a frame byte or a per-class byte total.
#[test]
fn shared_empty_summary_encodes_like_a_fresh_one() {
    let shared = || flower_proto::ContentStore::new().summary();
    assert!(Arc::ptr_eq(&shared(), &shared()));
    // The summary sizing, said as a literal (`store.rs`: 256 items at 2 %).
    let fresh = || Arc::new(BloomFilter::with_rate(256, 0.02));
    let redirect = |s: &dyn Fn() -> Summary| FlowerMsg::Redirect {
        qid: qid(),
        object: None,
        provider: None,
        dir: dir(),
        petal_view: (0..3).map(|i| (node(20 + i), s())).collect(),
        dht_hops: 0,
    };
    let gossip = |s: &dyn Fn() -> Summary| FlowerMsg::Gossip {
        inner: GossipMsg::ShuffleReply {
            entries: (0..4).map(|i| Entry::new(node(30 + i), s())).collect(),
        },
        dir_info: None,
    };
    for (with_shared, with_fresh) in [
        (redirect(&shared), redirect(&fresh)),
        (gossip(&shared), gossip(&fresh)),
    ] {
        assert_eq!(with_shared, with_fresh);
        assert_eq!(with_shared.wire_bytes(), with_fresh.wire_bytes());
        let frame = |msg| encode_frame(&Frame::Peer(msg));
        assert_eq!(frame(with_shared), frame(with_fresh));
    }
}
