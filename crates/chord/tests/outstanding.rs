//! `Outstanding` against a reference model of the per-kind rules it
//! replaced: Chord's lookup table (`token`, any reply while live, a step
//! deadline only at the current `attempt`), its stabilize generation
//! counter (a new round and a taken reply each bump it; a reply or
//! deadline is current only at the counter), its ping nonce and Flower's
//! awaited ack and claim (one slot each, overwritten by the next request).
//!
//! Both are driven the way the machines drive them — a lookup opens and
//! arms its first step, and a reply or an expiry re-arms or closes it; a
//! stabilize round, ping, dir-ack or claim closes the one it supersedes
//! and is armed once — and then fed replies and deadlines for any request
//! ever issued: duplicated, reordered, after close, at stale attempts, and
//! for rids never issued. Every reply and deadline must be taken by both or
//! by neither, and the lookups open in the table must be the model's, at
//! the model's attempts.

use chord::{ChordId, NodeRef, Outstanding, FIRST_ATTEMPT};
use proptest::prelude::*;
use simnet::NodeId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lookup,
    Stabilize,
    Ping,
    DirAck,
    Claim,
}

const KINDS: [Kind; 5] = [
    Kind::Lookup,
    Kind::Stabilize,
    Kind::Ping,
    Kind::DirAck,
    Kind::Claim,
];

/// The per-kind state the table replaced.
#[derive(Default)]
struct Model {
    /// Chord's lookups: `(token, attempt)`, in token order.
    lookups: Vec<(u64, u32)>,
    next_token: u64,
    /// Chord's `stabilize_gen`: bumped by a new round and by a taken reply.
    stabilize_gen: u64,
    /// Chord's `ping_nonce` and the nonce outstanding.
    ping_nonce: u64,
    pending_ping: Option<u64>,
    /// Flower's `alloc_seq` counter, the awaited ack and the claim's seq.
    seq: u64,
    awaiting_ack: Option<u64>,
    claim: Option<u64>,
}

impl Model {
    fn open(&mut self, kind: Kind) -> u64 {
        match kind {
            Kind::Lookup => {
                let token = self.next_token;
                self.next_token += 1;
                self.lookups.push((token, 1));
                token
            }
            Kind::Stabilize => {
                self.stabilize_gen += 1;
                self.stabilize_gen
            }
            Kind::Ping => {
                self.ping_nonce += 1;
                self.pending_ping = Some(self.ping_nonce);
                self.ping_nonce
            }
            Kind::DirAck | Kind::Claim => {
                self.seq += 1;
                let slot = if kind == Kind::DirAck {
                    &mut self.awaiting_ack
                } else {
                    &mut self.claim
                };
                *slot = Some(self.seq);
                self.seq
            }
        }
    }

    fn lookup(&mut self, token: u64) -> Option<&mut (u64, u32)> {
        self.lookups.iter_mut().find(|(t, _)| *t == token)
    }

    /// A reply carrying `id`: taken or not, and what taking it does.
    fn answer(&mut self, kind: Kind, id: u64) -> bool {
        match kind {
            Kind::Lookup => self.lookup(id).map(|(_, a)| *a += 1).is_some(),
            Kind::Stabilize => {
                let taken = id == self.stabilize_gen;
                self.stabilize_gen += u64::from(taken);
                taken
            }
            Kind::Ping => take_if(&mut self.pending_ping, id),
            Kind::DirAck => take_if(&mut self.awaiting_ack, id),
            Kind::Claim => unreachable!("a claim's verdict carries no seq"),
        }
    }

    /// A deadline carrying `id` and `attempt` fired: taken or not.
    fn expire(&mut self, kind: Kind, id: u64, attempt: u32) -> bool {
        match kind {
            Kind::Lookup => self.lookup(id).is_some_and(|(_, a)| *a == attempt),
            Kind::Stabilize => id == self.stabilize_gen,
            Kind::Ping => take_if(&mut self.pending_ping, id),
            Kind::DirAck => take_if(&mut self.awaiting_ack, id),
            Kind::Claim => self.claim == Some(id),
        }
    }
}

fn take_if(slot: &mut Option<u64>, id: u64) -> bool {
    let taken = *slot == Some(id);
    if taken {
        *slot = None;
    }
    taken
}

/// The table as the machines use it.
#[derive(Default)]
struct Table(Outstanding<Kind>);

impl Table {
    fn open(&mut self, kind: Kind) -> u64 {
        if kind != Kind::Lookup {
            // A round, ping, ack or claim supersedes the one in flight.
            self.0.retain(|r| r.purpose != kind);
        }
        let rid = self.0.open(to(), kind);
        self.0.arm(rid);
        rid
    }

    fn answer(&mut self, kind: Kind, rid: u64) -> bool {
        let taken = self.0.answer(rid, |k| *k == kind).is_some();
        if taken && kind != Kind::Lookup {
            self.0.close(rid); // answered once; a duplicate is stale
        }
        taken
    }

    fn expire(&mut self, kind: Kind, rid: u64, attempt: u32) -> bool {
        let taken = self
            .0
            .expire(rid, attempt)
            .is_some_and(|r| r.purpose == kind);
        if taken && matches!(kind, Kind::Ping | Kind::DirAck) {
            self.0.close(rid);
        }
        taken
    }
}

fn to() -> NodeRef {
    NodeRef::new(NodeId::from_index(1), ChordId(1))
}

/// One request as issued: its kind, its id in the model and its rid in the
/// table, and the attempt its latest deadline was armed at.
#[derive(Debug, Clone, Copy)]
struct Issued {
    kind: Kind,
    id: u64,
    rid: u64,
    armed: u32,
}

/// What the next operation does; `pick` chooses among the requests issued
/// so far (or, past their end, a rid never issued), `arg` the rest.
fn step(
    model: &mut Model,
    table: &mut Table,
    issued: &mut Vec<Issued>,
    op: u8,
    pick: u16,
    arg: u8,
) {
    let unknown = issued.len() < 4 || pick.is_multiple_of(16);
    let at = usize::from(pick) % issued.len().max(1);
    let target = if unknown {
        // Never issued: beyond every counter on both sides.
        let kind = KINDS[usize::from(arg) % KINDS.len()];
        Issued {
            kind,
            id: 1 << 40 | u64::from(pick),
            rid: 1 << 40 | u64::from(pick),
            armed: FIRST_ATTEMPT,
        }
    } else {
        issued[at]
    };
    match op % 5 {
        0 => {
            let kind = KINDS[usize::from(arg) % KINDS.len()];
            let (id, rid) = (model.open(kind), table.open(kind));
            issued.push(Issued {
                kind,
                id,
                rid,
                armed: FIRST_ATTEMPT,
            });
        }
        1 if target.kind != Kind::Claim => {
            let (m, t) = (
                model.answer(target.kind, target.id),
                table.answer(target.kind, target.rid),
            );
            assert_eq!(m, t, "reply to {target:?}");
            if m && target.kind == Kind::Lookup && arg.is_multiple_of(2) {
                // The reply moves the lookup on: its next step is armed.
                rearm(model, table, issued, target);
            }
        }
        1 => {
            // A grant or denial ends whatever claim is in flight.
            model.claim = None;
            table.0.retain(|r| r.purpose != Kind::Claim);
        }
        2 | 3 => {
            // The deadline as armed, or at a stale or future attempt. A
            // deadline armed once carries no attempt: it expires at the
            // first.
            let attempt = match arg % 4 {
                _ if target.kind != Kind::Lookup => FIRST_ATTEMPT,
                0 => target.armed.wrapping_sub(1),
                1 => target.armed + 1,
                _ => target.armed,
            };
            let (m, t) = (
                model.expire(target.kind, target.id, attempt),
                table.expire(target.kind, target.rid, attempt),
            );
            assert_eq!(m, t, "deadline {attempt} of {target:?}");
            if m {
                match target.kind {
                    Kind::Lookup if arg.is_multiple_of(3) => close_lookup(model, table, target),
                    Kind::Lookup => rearm(model, table, issued, target),
                    // The next round or claim supersedes the one that
                    // expired — or, for a stranded node, nothing does.
                    Kind::Stabilize | Kind::Claim if arg.is_multiple_of(2) => {
                        step(model, table, issued, 0, 0, target.kind as u8)
                    }
                    _ => {}
                }
            }
        }
        _ if target.kind == Kind::Lookup => close_lookup(model, table, target),
        _ => {}
    }
    let open: Vec<(u64, u32)> = table
        .0
        .iter()
        .filter(|r| r.purpose == Kind::Lookup)
        .map(|r| (r.rid, r.attempt))
        .collect();
    let by_rid: Vec<(u64, u32)> = model
        .lookups
        .iter()
        .map(|&(token, attempt)| {
            let rid = issued
                .iter()
                .find(|i| i.kind == Kind::Lookup && i.id == token);
            (rid.expect("issued").rid, attempt)
        })
        .collect();
    assert_eq!(open, by_rid, "open lookups and their attempts");
    assert!(table
        .0
        .iter()
        .zip(table.0.iter().skip(1))
        .all(|(a, b)| a.rid < b.rid));
}

fn rearm(model: &mut Model, table: &mut Table, issued: &mut Vec<Issued>, lk: Issued) {
    let attempt = model.lookup(lk.id).map(|(_, a)| {
        *a += 1;
        *a
    });
    assert_eq!(attempt, table.0.arm(lk.rid), "re-arming {lk:?}");
    issued.push(Issued {
        armed: attempt.expect("live"),
        ..lk
    });
}

fn close_lookup(model: &mut Model, table: &mut Table, lk: Issued) {
    let was = model.lookups.len();
    model.lookups.retain(|&(t, _)| t != lk.id);
    assert_eq!(was != model.lookups.len(), table.0.close(lk.rid).is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn table_takes_what_the_per_kind_rules_took(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..160)
    ) {
        let (mut model, mut table, mut issued) = (Model::default(), Table::default(), Vec::new());
        for (op, pick, arg) in ops {
            step(&mut model, &mut table, &mut issued, op, pick, arg);
        }
    }
}

#[test]
fn a_burned_rid_is_held_by_nobody_and_shifts_nothing() {
    let mut t = Outstanding::default();
    let a = t.open(to(), ());
    let burned = t.burn();
    let b = t.open(to(), ());
    assert_eq!((a, burned, b), (0, 1, 2));
    assert!(t.answer(burned, |_| true).is_none());
    assert!(t.expire(burned, 0).is_none());
    assert_eq!(t.next_rid(), 3);
}

#[test]
fn an_answer_stales_the_armed_deadline_and_a_rearm_the_one_before() {
    let mut t = Outstanding::default();
    let rid = t.open(to(), ());
    let first = t.arm(rid).expect("open");
    assert_eq!(first, FIRST_ATTEMPT);
    assert!(t.answer(rid, |_| true).is_some());
    assert!(t.expire(rid, first).is_none(), "answered: stale");
    let next = t.arm(rid).expect("open");
    assert!(t.expire(rid, first).is_none());
    assert!(t.expire(rid, next).is_some());
    assert!(t.close(rid).is_some());
    assert!(t.expire(rid, next).is_none(), "closed: stale");
    assert!(t.answer(rid, |_| true).is_none());
    assert!(t.arm(rid).is_none());
}
