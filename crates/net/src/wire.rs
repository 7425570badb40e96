//! Length-prefixed, versioned framing for the flower protocol.
//!
//! A frame on the socket is
//!
//! ```text
//! [u32 LE payload length][payload]
//! payload = [u8 version][Frame]
//! ```
//!
//! This module owns what belongs to a socket: the length prefix, the
//! version byte and blocking stream I/O. A [`Frame`] is a `wire_enum!` row
//! like every message it carries — a `u8` tag, then the variant's fields —
//! so its byte form, and that of every protocol and API message, is
//! [`flower_proto::wire`], defined beside the messages and shared with the
//! simulator's byte accounting; its error type is re-exported here. Decoding
//! is **total**: malformed, truncated or corrupt input yields a typed
//! [`WireError`], never a panic (property-tested in
//! `tests/wire_roundtrip.rs`).

use std::io::{self, Read, Write};

use flower_proto::wire::{Dec, Enc, Wire};
use flower_proto::{wire_enum, ApiCall, ApiResp, FlowerMsg};
use simnet::NodeId;

pub use flower_proto::wire::WireError;

/// Protocol version carried in every frame. Version 2: replies name their
/// query only (`FetchOk`, `FetchMiss` and `Redirect` carry no object) and
/// `Push` carries no `full` flag.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on one frame's payload; a corrupt length prefix must not
/// make the reader allocate gigabytes.
pub const MAX_FRAME: usize = 8 << 20;

/// Everything that travels on a socket between flower processes.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// First frame on a peer connection: who is dialing.
    Hello { node: NodeId },
    /// Protocol traffic between peers.
    Peer(FlowerMsg),
    /// A CLI request; `token` correlates the response on the same
    /// connection.
    Api { token: u64, call: ApiCall },
    /// The node's answer to an [`Frame::Api`] request.
    ApiResp { token: u64, resp: ApiResp },
    /// Ask the node to leave the ring and exit cleanly.
    Shutdown,
}

wire_enum!(Frame, "frame kind" {
    0 => Hello { node },
    1 => Peer(msg),
    2 => Api { token, call },
    3 => ApiResp { token, resp },
    4 => Shutdown,
});

/// Encode one frame, length prefix included.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    // The length prefix is written last, over these four bytes.
    let mut enc = Enc { out: vec![0u8; 4] };
    WIRE_VERSION.put(&mut enc);
    frame.put(&mut enc);
    let mut out = enc.out;
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// Decode one frame payload (everything after the length prefix).
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let d = &mut Dec { buf: payload };
    let version = u8::get(d)?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let frame = Frame::get(d)?;
    if !d.buf.is_empty() {
        return Err(WireError::TrailingBytes(d.buf.len()));
    }
    Ok(frame)
}

/// Decode one length-prefixed frame from a byte slice; returns the frame
/// and the total bytes consumed.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    if bytes.len() < 4 {
        return Err(WireError::Truncated);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    if bytes.len() < 4 + len {
        return Err(WireError::Truncated);
    }
    let frame = decode_payload(&bytes[4..4 + len])?;
    Ok((frame, 4 + len))
}

/// Read one frame from a blocking stream. `Ok(None)` means the peer
/// closed the connection cleanly at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(WireError::Io(e)),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    decode_payload(&payload).map(Some)
}

/// Write one frame to a blocking stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    let bytes = encode_frame(frame);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}
