//! Trace-event names this crate consumes, mirrored from
//! `flower_cdn::tags` (this crate sits *below* the protocol crate, so it
//! cannot import them). A parity test in `flower-cdn` asserts the two
//! sets of constants stay identical — change them together.

use simnet::{field_u64, FieldValue};

/// A D-ring position as trace fields carry it: (website, locality,
/// instance).
pub type Pos = (u64, u64, u64);

/// The position a [`BECAME_DIRECTORY`] / [`DEMOTED`] event names.
pub fn pos_of(fields: &[(&'static str, FieldValue)]) -> Option<Pos> {
    Some((
        field_u64(fields, "ws")?,
        field_u64(fields, "loc")?,
        field_u64(fields, "inst")?,
    ))
}

/// A peer became the directory of a position
/// (fields: `ws`, `loc`, `inst`, `replacement`, `snapshot`).
pub const BECAME_DIRECTORY: &str = "became_directory";
/// A directory demoted itself voluntarily (fields: `ws`, `loc`, `inst`).
pub const DEMOTED: &str = "demoted";
/// A directory answered a query (fields: `qid`, `hit`).
pub const REDIRECT: &str = "redirect";
/// A query reached a terminal state (fields: `qid`, `provider`).
pub const QUERY_COMPLETE: &str = "query_complete";
/// Squirrel: the home node answered a query (fields: `qid`, `hit`).
pub const SQ_HOME_ANSWER: &str = "sq_home_answer";
/// `provider` value on [`QUERY_COMPLETE`] meaning the origin served it
/// (everything else counts as a CDN hit).
pub const PROVIDER_ORIGIN: &str = "origin";
