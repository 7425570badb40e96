//! The byte form of every protocol and API message, defined next to the
//! messages themselves — each layout written once.
//!
//! One trait, [`Wire`], says how a type is put and how it is got back. The
//! *leaves* (fixed-width little-endian integers, `bool`, `NodeId`,
//! `QueryId`, `Option`, `Vec`, tuples, [`Summary`], [`DirPosition`]) are
//! written by hand and hold every decode check. Every record and enum is a
//! *table*: `wire_record!(Type { fields in wire order })`, or
//! `wire_enum!(Type, "what" { tag => Variant { fields in wire order }, … })`
//! — a `u8` tag, then the fields. `put`, `get` and the counted length all
//! come from that one row, so they cannot drift apart. To add a field, add
//! it to the type and to its row; to add a message, add the variant and a
//! row with the next free tag. Either one without its row does not compile.
//! A row's tag and field order *are* the wire format: the exact bytes of
//! one frame per variant are pinned in
//! `crates/net/tests/wire_roundtrip.rs::frame_bytes_are_pinned`.
//!
//! The codec is hand-rolled (no serde in the tree) and **total**: every
//! decode path returns a typed [`WireError`] — malformed, truncated or
//! corrupt input can never panic a node. Encoding is deterministic, so
//! `get(put(m)) == m` holds for every message (property-tested in
//! `wire_roundtrip.rs`).
//!
//! One `put` serves both hosts: `flower-net` runs it over a `Vec<u8>` and
//! frames the result for a socket; the simulator runs the same `put` over a
//! counter (`encoded_len`) to charge a message exactly the bytes TCP would
//! carry ([`FlowerMsg::wire_bytes`], `SqMsg::wire_bytes`).

use std::fmt;
use std::io;
use std::sync::Arc;

use bloom::BloomFilter;
use chord::{ChordId, ChordMsg, NodeRef, StepResult};
use gossip::{Entry, GossipMsg};
use simnet::{LocalityId, NodeId};
use workload::{ObjectId, WebsiteId};

use crate::{
    ApiCall, ApiResp, DirInfo, DirPosition, DirectorySnapshot, FlowerMsg, ProviderKind, QueryId,
    Redirect, RoleKind, RoutePayload, SiblingQuery, Summary,
};

/// Bytes the TCP host's frame adds around an encoded message: the `u32`
/// length prefix, the version byte and the frame's tag.
pub const FRAME_OVERHEAD: usize = 4 + 1 + 1;

/// The object body a transfer (`FetchOk`, Squirrel's `StoreCopy`) would
/// carry on a real wire. Objects are identifiers in this reproduction, so
/// the codec ships none; the byte accounting charges the paper's
/// small-object regime (a few KiB) on top of the encoded message.
pub const MODELLED_OBJECT_BYTES: usize = 4096;

/// Upper bound on any single collection inside a frame (view entries,
/// object lists, successor lists). Generous for the protocol's real
/// traffic, tight enough that a hostile length field cannot balloon
/// memory before the truncation check catches it.
const MAX_ITEMS: usize = 1 << 20;

/// Upper bound on Bloom filter bits accepted off the wire (16 MiB of
/// summary is far beyond anything the protocol produces).
const MAX_BLOOM_BITS: usize = 1 << 27;

/// Everything that can go wrong decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// The body ended before the announced structure did.
    Truncated,
    /// Version byte we do not speak.
    BadVersion(u8),
    /// Unknown enum discriminant inside a known structure.
    BadTag { what: &'static str, tag: u8 },
    /// A length or parameter field is inconsistent or absurd.
    Malformed(&'static str),
    /// The length prefix exceeds the host's frame limit.
    FrameTooLarge(usize),
    /// Bytes left over after a complete decode (framing bug or garbage).
    TrailingBytes(usize),
    /// Underlying socket error.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Sinks, the put cursor, the get cursor
// ---------------------------------------------------------------------

/// Where an [`Enc`] puts its bytes.
pub trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    // Not generic, so without the hint every byte put from `flower-net`'s
    // instantiation of `Enc` would be an out-of-line call into this crate.
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A counter as a sink keeps only the length of what was put.
impl Sink for usize {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

/// The bytes `put` writes, counted instead of written (no allocation).
pub(crate) fn encoded_len(put: impl FnOnce(&mut Enc<usize>)) -> usize {
    let mut e = Enc { out: 0 };
    put(&mut e);
    e.out
}

/// The put half of the codec, over any [`Sink`].
pub struct Enc<S> {
    pub out: S,
}

/// The get half of the codec: a cursor over one received payload.
pub struct Dec<'a> {
    /// What is left to read.
    pub buf: &'a [u8],
}

type R<T> = Result<T, WireError>;

impl<'a> Dec<'a> {
    /// The next `n` bytes, or `Truncated`: every read goes through here.
    #[inline]
    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }
}

/// A type with a byte form: [`put`](Wire::put) writes it, [`get`](Wire::get)
/// reads it back and checks it.
pub trait Wire: Sized {
    fn put<S: Sink>(&self, e: &mut Enc<S>);
    fn get(d: &mut Dec) -> Result<Self, WireError>;
}

// ---------------------------------------------------------------------
// Leaves: written by hand, once; every decode check lives here
// ---------------------------------------------------------------------

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            #[inline]
            fn put<S: Sink>(&self, e: &mut Enc<S>) {
                e.out.put(&self.to_le_bytes());
            }
            #[inline]
            fn get(d: &mut Dec) -> R<Self> {
                let bytes = d.take(size_of::<$ty>())?.try_into();
                Ok(<$ty>::from_le_bytes(bytes.expect("take gives the width asked for")))
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64);

impl Wire for bool {
    #[inline]
    fn put<S: Sink>(&self, e: &mut Enc<S>) {
        u8::from(*self).put(e);
    }
    #[inline]
    fn get(d: &mut Dec) -> R<Self> {
        match u8::get(d)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool")),
        }
    }
}

impl Wire for NodeId {
    #[inline]
    fn put<S: Sink>(&self, e: &mut Enc<S>) {
        self.raw().put(e);
    }
    #[inline]
    fn get(d: &mut Dec) -> R<Self> {
        // Wire ids are u64 for forward compatibility; live ids are dense
        // u32 indices, so anything wider is garbage, not a node.
        let raw = u64::get(d)?;
        if raw >= u64::from(u32::MAX) {
            return Err(WireError::Malformed("node id"));
        }
        Ok(NodeId::from_index(raw as usize))
    }
}

impl Wire for QueryId {
    #[inline]
    fn put<S: Sink>(&self, e: &mut Enc<S>) {
        self.raw().put(e);
    }
    #[inline]
    fn get(d: &mut Dec) -> R<Self> {
        u64::get(d).map(QueryId::from_raw)
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put<S: Sink>(&self, e: &mut Enc<S>) {
        match self {
            None => 0u8.put(e),
            Some(x) => {
                1u8.put(e);
                x.put(e);
            }
        }
    }
    #[inline]
    fn get(d: &mut Dec) -> R<Self> {
        match u8::get(d)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d)?)),
            _ => Err(WireError::Malformed("option tag")),
        }
    }
}

/// A length-prefixed sequence. The announced length is capped and never
/// trusted for more than a small pre-allocation: a hostile count runs into
/// `Truncated` first.
impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put<S: Sink>(&self, e: &mut Enc<S>) {
        debug_assert!(self.len() <= u32::MAX as usize);
        (self.len() as u32).put(e);
        for item in self {
            item.put(e);
        }
    }
    #[inline]
    fn get(d: &mut Dec) -> R<Self> {
        let n = u32::get(d)? as usize;
        if n > MAX_ITEMS {
            return Err(WireError::Malformed("collection length"));
        }
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(T::get(d)?);
        }
        Ok(v)
    }
}

macro_rules! wire_tuple {
    ($($T:ident),*) => {
        impl<$($T: Wire),*> Wire for ($($T,)*) {
            #[inline]
            #[allow(non_snake_case)]
            fn put<S: Sink>(&self, e: &mut Enc<S>) {
                let ($($T,)*) = self;
                $($T.put(e);)*
            }
            #[inline]
            fn get(d: &mut Dec) -> R<Self> {
                Ok(($($T::get(d)?,)*))
            }
        }
    };
}
wire_tuple!(A, B);
wire_tuple!(A, B, C);

impl Wire for Summary {
    #[inline]
    fn put<S: Sink>(&self, e: &mut Enc<S>) {
        (self.bit_len() as u32).put(e);
        self.hash_count().put(e);
        (self.inserted() as u32).put(e);
        for w in self.words() {
            w.put(e);
        }
    }
    fn get(d: &mut Dec) -> R<Self> {
        let m = u32::get(d)? as usize;
        let k = u32::get(d)?;
        let items = u32::get(d)? as usize;
        if m == 0 || m > MAX_BLOOM_BITS || k == 0 {
            return Err(WireError::Malformed("bloom parameters"));
        }
        // One truncation check for the whole bit array, before any allocation.
        let bits = d
            .take(m.div_ceil(64) * 8)?
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("chunks of 8")))
            .collect();
        BloomFilter::from_parts(m, k, items, bits)
            .map(Arc::new)
            .ok_or(WireError::Malformed("bloom parameters"))
    }
}

impl Wire for DirPosition {
    #[inline]
    fn put<S: Sink>(&self, e: &mut Enc<S>) {
        self.website.put(e);
        self.locality.put(e);
        self.instance.put(e);
    }
    #[inline]
    fn get(d: &mut Dec) -> R<Self> {
        DirPosition::checked(Wire::get(d)?, Wire::get(d)?, Wire::get(d)?)
            .ok_or(WireError::Malformed("dir position"))
    }
}

// ---------------------------------------------------------------------
// Tables: one row per record, one row per variant
// ---------------------------------------------------------------------

/// A record is its fields, in wire order. A field is named as in the type
/// (`0` for a newtype's); adding one to the type without adding it here
/// fails to compile in `get`.
macro_rules! wire_record {
    ($ty:ty { $($field:tt),* }) => {
        impl Wire for $ty {
            #[inline]
            fn put<S: Sink>(&self, e: &mut Enc<S>) {
                $(self.$field.put(e);)*
            }
            #[inline]
            fn get(d: &mut Dec) -> R<Self> {
                Ok(Self { $($field: Wire::get(d)?),* })
            }
        }
    };
}

/// An enum is a `u8` tag, then the variant's fields in wire order:
/// `tag => Variant { fields }`, `tag => Variant(field)` or `tag => Variant`.
/// Both directions and the counted length (`put` over a `usize` sink) come
/// from the row; `put`'s `match` is exhaustive, so a variant without a row
/// does not compile, and an unknown tag is `BadTag { what, tag }`.
/// Exported, so a host's own envelope (`flower-net`'s socket frame) is a row
/// too.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ty, $what:literal {
        $($tag:literal => $variant:ident $({ $($field:ident),* })? $(( $($item:ident),* ))?),* $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            fn put<S: $crate::wire::Sink>(&self, e: &mut $crate::wire::Enc<S>) {
                match self {
                    $(Self::$variant $({ $($field),* })? $(( $($item),* ))? => {
                        <u8 as $crate::wire::Wire>::put(&$tag, e);
                        $($($crate::wire::Wire::put($field, e);)*)?
                        $($($crate::wire::Wire::put($item, e);)*)?
                    })*
                }
            }
            fn get(d: &mut $crate::wire::Dec) -> Result<Self, $crate::wire::WireError> {
                Ok(match <u8 as $crate::wire::Wire>::get(d)? {
                    $($tag => {
                        $($(let $field = $crate::wire::Wire::get(d)?;)*)?
                        $($(let $item = $crate::wire::Wire::get(d)?;)*)?
                        Self::$variant $({ $($field),* })? $(( $($item),* ))?
                    })*
                    tag => return Err($crate::wire::WireError::BadTag { what: $what, tag }),
                })
            }
        }
    };
}

wire_record!(WebsiteId { 0 });
wire_record!(LocalityId { 0 });
wire_record!(ChordId { 0 });
wire_record!(ObjectId { website, rank });
wire_record!(NodeRef { node, id });
wire_record!(DirInfo {
    position,
    holder,
    age
});
wire_record!(Entry<Summary> { node, age, payload });
wire_record!(Redirect {
    qid,
    object,
    provider,
    dir,
    petal_view,
    dht_hops
});
wire_record!(SiblingQuery {
    client,
    qid,
    object,
    dir,
    petal_view,
    exclude,
    ttl
});
wire_record!(DirectorySnapshot { entries });

wire_enum!(StepResult, "step result" {
    0 => Owner(owner),
    1 => Forward(next),
    2 => Unknown,
});

wire_enum!(ChordMsg, "chord message" {
    0 => FindNext { key, token, from },
    1 => FindNextReply { token, result },
    2 => GetNeighbors { gen, from },
    3 => NeighborsReply { gen, sender, predecessor, successors },
    4 => Notify { candidate },
    5 => Ping { nonce },
    6 => Pong { nonce },
    7 => Route { key, token, origin, hops },
    8 => RouteResult { token, owner, hops },
});

wire_enum!(RoutePayload, "route payload" {
    0 => ClientRequest { client, website, locality, object, qid },
    1 => Claim { claimer, position },
});

wire_enum!(GossipMsg<Summary>, "gossip message" {
    0 => ShuffleReq { entries },
    1 => ShuffleReply { entries },
});

wire_enum!(FlowerMsg, "flower message" {
    0 => Chord(msg),
    1 => DRingRoute { key, payload },
    2 => Routed { key, payload, hops },
    3 => RouteFailed { req_qid },
    4 => Redirect(r),
    5 => DirQuery { qid, object, exclude },
    6 => SiblingQuery(q),
    7 => DeadPeerReport { peer },
    8 => Retract { objects },
    9 => ClaimGranted { position, seed },
    10 => ClaimDenied { position, holder },
    11 => Fetch { qid, object },
    12 => FetchOk { qid, object },
    13 => FetchMiss { qid, object },
    14 => Gossip { inner, dir_info },
    15 => Keepalive { seq },
    16 => Push { seq, objects, full },
    17 => DirAck { seq, dir },
    18 => Promote { position, seed, snapshot },
});

wire_enum!(ApiCall, "api call" {
    0 => Ping,
    1 => Put { object },
    2 => Get { object },
    3 => FindDirectory,
});

wire_enum!(RoleKind, "role" {
    0 => Client,
    1 => Content,
    2 => Directory,
});

wire_enum!(ProviderKind, "provider" {
    0 => Local,
    1 => ContentPeer,
    2 => DirectoryPeer,
    3 => Origin,
});

wire_enum!(ApiResp, "api response" {
    0 => Pong { node, role, website, locality, store_len, view_len },
    1 => PutOk { object },
    2 => Got { object, provider, elapsed_ms },
    3 => Directory { dir },
    4 => Busy,
});
