//! Property tests for the wire codec: `decode(encode(f)) == f` for every
//! frame type, corrupt or truncated input always yields a typed
//! [`WireError`] — never a panic, never a bogus frame accepted as valid —
//! and the bytes the simulator charges a message (`wire_bytes`) are the
//! bytes of the frame TCP carries for it.

use std::sync::Arc;

use bloom::BloomFilter;
use chord::{ChordId, ChordMsg, NodeRef, StepResult};
use flower_net::wire::{
    decode_frame, decode_payload, encode_frame, read_frame, Frame, WireError, MAX_FRAME,
    WIRE_VERSION,
};
use flower_proto::squirrel::SqMsg;
use flower_proto::wire::MODELLED_OBJECT_BYTES;
use flower_proto::{
    ApiCall, ApiResp, DirInfo, DirPosition, DirectorySnapshot, FlowerMsg, ProviderKind, QueryId,
    RoleKind, RoutePayload, Summary,
};
use gossip::{Entry, GossipMsg};
use proptest::prelude::*;
use simnet::{LocalityId, NodeId};
use workload::{ObjectId, WebsiteId};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn node() -> impl Strategy<Value = NodeId> {
    // NodeId is a dense u32 index; cover the full representable range.
    (0u64..u64::from(u32::MAX)).prop_map(|i| NodeId::from_index(i as usize))
}

fn website() -> impl Strategy<Value = WebsiteId> {
    any::<u16>().prop_map(WebsiteId)
}

fn locality() -> impl Strategy<Value = LocalityId> {
    (0u16..64).prop_map(LocalityId)
}

fn object() -> impl Strategy<Value = ObjectId> {
    (website(), any::<u16>()).prop_map(|(website, rank)| ObjectId { website, rank })
}

fn chord_id() -> impl Strategy<Value = ChordId> {
    any::<u64>().prop_map(ChordId)
}

fn node_ref() -> impl Strategy<Value = NodeRef> {
    (node(), chord_id()).prop_map(|(n, id)| NodeRef::new(n, id))
}

fn qid() -> impl Strategy<Value = QueryId> {
    (node(), 0u32..1 << 20).prop_map(|(n, seq)| QueryId::new(n, seq))
}

fn position() -> impl Strategy<Value = DirPosition> {
    (website(), locality(), 0u32..256).prop_map(|(w, l, i)| DirPosition::checked(w, l, i).unwrap())
}

fn dir_info() -> impl Strategy<Value = DirInfo> {
    (position(), node_ref(), any::<u32>()).prop_map(|(position, holder, age)| DirInfo {
        position,
        holder,
        age,
    })
}

fn bloom() -> impl Strategy<Value = Summary> {
    (
        64usize..512,
        1u32..8,
        proptest::collection::vec(any::<u64>(), 0..16),
    )
        .prop_map(|(m, k, keys)| {
            let mut b = BloomFilter::with_params(m, k);
            for key in keys {
                b.insert(key);
            }
            Arc::new(b)
        })
}

fn view() -> impl Strategy<Value = Vec<(NodeId, Summary)>> {
    proptest::collection::vec((node(), bloom()), 0..4)
}

fn step() -> impl Strategy<Value = StepResult> {
    prop_oneof![
        node_ref().prop_map(StepResult::Owner),
        node_ref().prop_map(StepResult::Forward),
        Just(StepResult::Unknown),
    ]
}

fn chord_msg() -> impl Strategy<Value = ChordMsg> {
    prop_oneof![
        (chord_id(), any::<u64>(), node_ref())
            .prop_map(|(key, token, from)| { ChordMsg::FindNext { key, token, from } }),
        (any::<u64>(), step())
            .prop_map(|(token, result)| ChordMsg::FindNextReply { token, result }),
        (any::<u64>(), node_ref()).prop_map(|(gen, from)| ChordMsg::GetNeighbors { gen, from }),
        (
            any::<u64>(),
            node_ref(),
            proptest::option::of(node_ref()),
            proptest::collection::vec(node_ref(), 0..8),
        )
            .prop_map(|(gen, sender, predecessor, successors)| {
                ChordMsg::NeighborsReply {
                    gen,
                    sender,
                    predecessor,
                    successors,
                }
            }),
        node_ref().prop_map(|candidate| ChordMsg::Notify { candidate }),
        any::<u64>().prop_map(|nonce| ChordMsg::Ping { nonce }),
        any::<u64>().prop_map(|nonce| ChordMsg::Pong { nonce }),
        (chord_id(), any::<u64>(), node_ref(), any::<u32>()).prop_map(
            |(key, token, origin, hops)| ChordMsg::Route {
                key,
                token,
                origin,
                hops
            }
        ),
        (any::<u64>(), node_ref(), any::<u32>())
            .prop_map(|(token, owner, hops)| { ChordMsg::RouteResult { token, owner, hops } }),
    ]
}

fn payload() -> impl Strategy<Value = RoutePayload> {
    prop_oneof![
        (
            node(),
            website(),
            locality(),
            proptest::option::of(object()),
            qid()
        )
            .prop_map(|(client, website, locality, object, qid)| {
                RoutePayload::ClientRequest {
                    client,
                    website,
                    locality,
                    object,
                    qid,
                }
            }),
        (node(), position())
            .prop_map(|(claimer, position)| RoutePayload::Claim { claimer, position }),
    ]
}

fn gossip_entries() -> impl Strategy<Value = Vec<Entry<Summary>>> {
    proptest::collection::vec(
        (node(), any::<u32>(), bloom()).prop_map(|(node, age, payload)| Entry {
            node,
            age,
            payload,
        }),
        0..4,
    )
}

fn gossip_msg() -> impl Strategy<Value = GossipMsg<Summary>> {
    prop_oneof![
        gossip_entries().prop_map(|entries| GossipMsg::ShuffleReq { entries }),
        gossip_entries().prop_map(|entries| GossipMsg::ShuffleReply { entries }),
    ]
}

fn snapshot() -> impl Strategy<Value = DirectorySnapshot> {
    proptest::collection::vec(
        (
            node(),
            proptest::collection::vec(object(), 0..8),
            any::<u64>(),
        ),
        0..4,
    )
    .prop_map(|entries| DirectorySnapshot { entries })
}

fn flower_msg() -> impl Strategy<Value = FlowerMsg> {
    prop_oneof![
        chord_msg().prop_map(FlowerMsg::Chord),
        (chord_id(), payload()).prop_map(|(key, payload)| FlowerMsg::DRingRoute { key, payload }),
        (chord_id(), payload(), any::<u32>()).prop_map(|(key, payload, hops)| FlowerMsg::Routed {
            key,
            payload,
            hops
        }),
        qid().prop_map(|req_qid| FlowerMsg::RouteFailed { req_qid }),
        (
            qid(),
            proptest::option::of(object()),
            proptest::option::of(node()),
            dir_info(),
            view(),
            any::<u32>(),
        )
            .prop_map(|(qid, object, provider, dir, petal_view, dht_hops)| {
                FlowerMsg::Redirect {
                    qid,
                    object,
                    provider,
                    dir,
                    petal_view,
                    dht_hops,
                }
            }),
        (qid(), object(), proptest::collection::vec(node(), 0..6)).prop_map(
            |(qid, object, exclude)| FlowerMsg::DirQuery {
                qid,
                object,
                exclude
            }
        ),
        (
            node(),
            qid(),
            object(),
            dir_info(),
            view(),
            proptest::collection::vec(node(), 0..6),
            any::<u8>(),
        )
            .prop_map(|(client, qid, object, dir, petal_view, exclude, ttl)| {
                FlowerMsg::SiblingQuery {
                    client,
                    qid,
                    object,
                    dir,
                    petal_view,
                    exclude,
                    ttl,
                }
            }),
        node().prop_map(|peer| FlowerMsg::DeadPeerReport { peer }),
        proptest::collection::vec(object(), 0..8)
            .prop_map(|objects| FlowerMsg::Retract { objects }),
        (position(), node_ref())
            .prop_map(|(position, seed)| FlowerMsg::ClaimGranted { position, seed }),
        (position(), node_ref())
            .prop_map(|(position, holder)| FlowerMsg::ClaimDenied { position, holder }),
        (qid(), object()).prop_map(|(qid, object)| FlowerMsg::Fetch { qid, object }),
        (qid(), object()).prop_map(|(qid, object)| FlowerMsg::FetchOk { qid, object }),
        (qid(), object()).prop_map(|(qid, object)| FlowerMsg::FetchMiss { qid, object }),
        (gossip_msg(), proptest::option::of(dir_info()))
            .prop_map(|(inner, dir_info)| { FlowerMsg::Gossip { inner, dir_info } }),
        any::<u64>().prop_map(|seq| FlowerMsg::Keepalive { seq }),
        (
            any::<u64>(),
            proptest::collection::vec(object(), 0..8),
            any::<bool>()
        )
            .prop_map(|(seq, objects, full)| FlowerMsg::Push { seq, objects, full }),
        (any::<u64>(), dir_info()).prop_map(|(seq, dir)| FlowerMsg::DirAck { seq, dir }),
        (position(), node_ref(), proptest::option::of(snapshot())).prop_map(
            |(position, seed, snapshot)| FlowerMsg::Promote {
                position,
                seed,
                snapshot
            }
        ),
    ]
}

fn api_call() -> impl Strategy<Value = ApiCall> {
    prop_oneof![
        Just(ApiCall::Ping),
        object().prop_map(|object| ApiCall::Put { object }),
        object().prop_map(|object| ApiCall::Get { object }),
        Just(ApiCall::FindDirectory),
    ]
}

fn api_resp() -> impl Strategy<Value = ApiResp> {
    let role = prop_oneof![
        Just(RoleKind::Client),
        Just(RoleKind::Content),
        Just(RoleKind::Directory)
    ];
    let provider = prop_oneof![
        Just(ProviderKind::Local),
        Just(ProviderKind::ContentPeer),
        Just(ProviderKind::DirectoryPeer),
        Just(ProviderKind::Origin),
    ];
    prop_oneof![
        (
            node(),
            role,
            website(),
            locality(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(node, role, website, locality, store_len, view_len)| {
                ApiResp::Pong {
                    node,
                    role,
                    website,
                    locality,
                    store_len,
                    view_len,
                }
            }),
        object().prop_map(|object| ApiResp::PutOk { object }),
        (object(), provider, any::<u64>()).prop_map(|(object, provider, elapsed_ms)| {
            ApiResp::Got {
                object,
                provider,
                elapsed_ms,
            }
        }),
        proptest::option::of(dir_info()).prop_map(|dir| ApiResp::Directory { dir }),
        Just(ApiResp::Busy),
    ]
}

fn frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        node().prop_map(|node| Frame::Hello { node }),
        flower_msg().prop_map(Frame::Peer),
        (any::<u64>(), api_call()).prop_map(|(token, call)| Frame::Api { token, call }),
        (any::<u64>(), api_resp()).prop_map(|(token, resp)| Frame::ApiResp { token, resp }),
        Just(Frame::Shutdown),
    ]
}

/// The exact on-wire size of a peer message, length prefix and frame
/// header included.
fn peer_frame_len(msg: &FlowerMsg) -> usize {
    encode_frame(&Frame::Peer(msg.clone())).len()
}

/// The object body `wire_bytes` models but the codec does not carry
/// (objects are identifiers in this reproduction).
fn modelled_body(msg: &FlowerMsg) -> usize {
    match msg {
        FlowerMsg::FetchOk { .. } => MODELLED_OBJECT_BYTES,
        _ => 0,
    }
}

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// encode → decode is the identity for every frame type.
    #[test]
    fn frame_round_trips(f in frame()) {
        let bytes = encode_frame(&f);
        let (decoded, consumed) = decode_frame(&bytes).expect("decode");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, f);
    }

    /// What the simulator charges a message is what the TCP host sends
    /// for it, to the byte.
    #[test]
    fn wire_bytes_is_the_frame_length(msg in flower_msg()) {
        prop_assert_eq!(msg.wire_bytes(), peer_frame_len(&msg) + modelled_body(&msg));
    }

    /// A byte means the same thing in both systems: the messages Squirrel
    /// shares with Flower-CDN are charged exactly alike.
    #[test]
    fn squirrel_is_charged_like_flower(m in chord_msg(), qid in qid(), object in object()) {
        prop_assert_eq!(
            SqMsg::Chord(m.clone()).wire_bytes(),
            FlowerMsg::Chord(m).wire_bytes()
        );
        for (sq, flower) in [
            (SqMsg::Fetch { qid, object }, FlowerMsg::Fetch { qid, object }),
            (SqMsg::FetchOk { qid, object }, FlowerMsg::FetchOk { qid, object }),
            (SqMsg::FetchMiss { qid, object }, FlowerMsg::FetchMiss { qid, object }),
        ] {
            prop_assert_eq!(sq.wire_bytes(), flower.wire_bytes());
        }
    }

    /// Streamed read sees the same frames in the same order.
    #[test]
    fn stream_round_trips(frames in proptest::collection::vec(frame(), 1..4)) {
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode_frame(f));
        }
        let mut cursor = std::io::Cursor::new(bytes);
        for f in &frames {
            let got = read_frame(&mut cursor).expect("read").expect("frame");
            prop_assert_eq!(&got, f);
        }
        prop_assert!(read_frame(&mut cursor).expect("eof").is_none());
    }

    /// Any truncation of a valid frame fails with a typed error — and
    /// never panics.
    #[test]
    fn truncation_is_typed(f in frame(), cut in 0.0f64..1.0) {
        let bytes = encode_frame(&f);
        let keep = ((bytes.len() as f64) * cut) as usize;
        if keep < bytes.len() {
            match decode_frame(&bytes[..keep]) {
                Err(_) => {}
                // A prefix that happens to parse must at least not
                // consume more bytes than it was given.
                Ok((_, consumed)) => prop_assert!(consumed <= keep),
            }
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_frame(&bytes);
        let _ = decode_payload(&bytes);
    }

    /// Flipping one byte of a valid frame either fails with a typed
    /// error or decodes to *some* frame — but never panics.
    #[test]
    fn corruption_never_panics(f in frame(), at in any::<u64>(), x in any::<u8>()) {
        let mut bytes = encode_frame(&f);
        // Every frame carries at least the length prefix + header.
        let i = (at % bytes.len() as u64) as usize;
        bytes[i] ^= x;
        let _ = decode_frame(&bytes);
    }
}

// ---------------------------------------------------------------------
// Directed corrupt-frame cases
// ---------------------------------------------------------------------

#[test]
fn wrong_version_is_rejected() {
    let mut bytes = encode_frame(&Frame::Shutdown);
    bytes[4] = WIRE_VERSION + 1; // version byte follows the 4-byte length
    match decode_frame(&bytes) {
        Err(WireError::BadVersion(v)) => assert_eq!(v, WIRE_VERSION + 1),
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn unknown_kind_is_rejected() {
    let payload = [WIRE_VERSION, 99];
    match decode_payload(&payload) {
        Err(WireError::BadKind(99)) => {}
        other => panic!("expected BadKind, got {other:?}"),
    }
}

#[test]
fn oversized_length_prefix_is_rejected() {
    let mut bytes = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0; 16]);
    match decode_frame(&bytes) {
        Err(WireError::FrameTooLarge(n)) => assert_eq!(n, MAX_FRAME + 1),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut payload = encode_frame(&Frame::Shutdown)[4..].to_vec();
    payload.push(0xAB);
    match decode_payload(&payload) {
        Err(WireError::TrailingBytes(1)) => {}
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
}

#[test]
fn truncated_mid_message_is_truncated_error() {
    let f = Frame::Peer(FlowerMsg::Keepalive { seq: 7 });
    let payload = &encode_frame(&f)[4..];
    match decode_payload(&payload[..payload.len() - 2]) {
        Err(WireError::Truncated) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn bogus_bloom_parameters_are_malformed() {
    // Hand-build a Gossip frame whose bloom announces m = 0.
    let mut payload = vec![WIRE_VERSION, 1 /* peer */, 14 /* gossip */];
    payload.push(0); // ShuffleReq
    payload.extend_from_slice(&1u32.to_le_bytes()); // one entry
    payload.extend_from_slice(&5u64.to_le_bytes()); // node
    payload.extend_from_slice(&0u32.to_le_bytes()); // age
    payload.extend_from_slice(&0u32.to_le_bytes()); // m = 0 (invalid)
    payload.extend_from_slice(&1u32.to_le_bytes()); // k
    payload.extend_from_slice(&0u32.to_le_bytes()); // items
    match decode_payload(&payload) {
        Err(WireError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// The one empty summary all empty stores share is, on the wire and in the
/// byte accounting, the empty filter every peer used to build for itself:
/// sharing it cannot move a frame byte or a per-class byte total.
#[test]
fn shared_empty_summary_encodes_like_a_fresh_one() {
    let node = NodeId::from_index;
    let qid = || QueryId::new(node(11), 42);
    let dir = || {
        DirInfo::fresh(
            DirPosition::new(WebsiteId(3), LocalityId(2), 0),
            NodeRef::new(node(9), ChordId(9 * 7919)),
        )
    };
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
