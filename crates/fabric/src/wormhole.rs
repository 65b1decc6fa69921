//! Wormhole virtual-channel flow control: per-(port, VC) credit ledgers.
//!
//! Under [`crate::switch::QueueDiscipline::Wormhole`] a multi-flit
//! transfer (one `Transaction` header plus its `Data` slots — a *worm*)
//! holds one virtual channel of its egress link from head to tail: the
//! head flit allocates a lane, body flits ride the held lane, and the
//! tail releases it. Each lane carries an independent flit-credit ledger
//! sized to the peer's per-lane ingress buffer, so a stalled worm blocks
//! only its own lane while other lanes of the same physical link keep
//! moving — the classic VC answer to wormhole head-of-line coupling.
//!
//! Deadlock freedom follows Duato's escape-channel argument: lane 0 (the
//! *escape* VC) only ever carries flits whose egress is the destination's
//! primary route — the deterministic dimension-ordered / up\*-down\* path
//! installed by the topology generators ([`crate::pods`]) — whose channel
//! dependency graph is acyclic by construction (checked exhaustively by
//! `fcc-verify`'s `check-routing`). Adaptive lanes (1..) may follow any
//! route candidate; when they saturate, every switch can still drain
//! traffic through the acyclic escape network, so no cycle of waits is
//! sustainable. See DESIGN.md for the full invariant list.
//!
//! [`VcLink`] is the egress side of one link; the switch keeps the worms
//! themselves in a `Worms` table, which answers the two wormhole
//! questions of its arbitration loop: which egress a head flit takes and
//! which lane it may use.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use fcc_proto::addr::NodeId;
use fcc_proto::flit::{flits_for_transfer, FlitMode, FlitPayload};

/// Per-link virtual-channel configuration. Both ends of a link must use
/// the same values (the upstream ledger mirrors the downstream buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcConfig {
    /// Number of virtual channels (lane 0 is the escape VC). At least 2:
    /// one escape lane plus one adaptive lane.
    pub vcs: u8,
    /// Ingress buffer depth per lane, in flits — the initial credit grant.
    pub buf_flits: u32,
}

impl Default for VcConfig {
    fn default() -> Self {
        VcConfig {
            vcs: 4,
            buf_flits: 8,
        }
    }
}

/// One virtual channel of an egress link: credit ledger plus hold state.
#[derive(Debug, Clone)]
pub struct VcLane {
    /// Flit credits available (free slots in the peer's lane buffer).
    pub credits: u32,
    /// Initial grant (the peer's lane buffer depth).
    pub cap: u32,
    /// Transaction id of the worm holding this lane, if any.
    pub holder: Option<u64>,
    /// Flits dispatched on this lane (each consumed one credit).
    pub sent: u64,
    /// Credits returned by the peer.
    pub returned: u64,
}

impl VcLane {
    fn new(cap: u32) -> Self {
        VcLane {
            credits: cap,
            cap,
            holder: None,
            sent: 0,
            returned: 0,
        }
    }

    /// Conservation check: credits must always equal `cap - in_flight`
    /// where `in_flight = sent - returned`. At quiescence (`sent ==
    /// returned`) the lane must be full and free.
    fn audit(&self, lane: usize) -> Result<(), String> {
        let in_flight = self.sent.checked_sub(self.returned).ok_or_else(|| {
            format!(
                "lane {lane}: returned {} > sent {}",
                self.returned, self.sent
            )
        })?;
        let expect = (self.cap as u64)
            .checked_sub(in_flight)
            .ok_or_else(|| format!("lane {lane}: {in_flight} in flight > cap {}", self.cap))?;
        if self.credits as u64 != expect {
            return Err(format!(
                "lane {lane}: {} credits, expected {expect} (cap {} - {in_flight} in flight)",
                self.credits, self.cap
            ));
        }
        if in_flight != 0 {
            return Err(format!("lane {lane}: {in_flight} flit(s) still in flight"));
        }
        if let Some(id) = self.holder {
            return Err(format!("lane {lane}: idle but held by worm {id}"));
        }
        Ok(())
    }
}

/// The egress side of one VC-flow-controlled link: all lanes plus the
/// violation counter the audit and the E14 smoke gate key on.
#[derive(Debug, Clone)]
pub struct VcLink {
    /// Lane state, index = VC number (0 = escape).
    pub lanes: Vec<VcLane>,
    /// Credit-conservation violations observed at runtime (a refund
    /// overflowing the cap, or a consume from an empty ledger). Stays 0
    /// on every correct run; E14 exports it as `credit_violations`.
    pub violations: u64,
}

impl VcLink {
    /// Creates the ledger for one egress link.
    pub fn new(cfg: VcConfig) -> Self {
        VcLink {
            lanes: (0..cfg.vcs.max(2))
                .map(|_| VcLane::new(cfg.buf_flits))
                .collect(),
            violations: 0,
        }
    }

    /// Picks the lane for a worm's head flit: the lowest-numbered lane
    /// that is free (or already held by `worm`) with a credit available.
    /// Lane 0 is only eligible when `escape_ok` (the egress is the
    /// destination's primary deterministic route).
    pub fn allocate(&self, worm: u64, escape_ok: bool) -> Option<u8> {
        let first = usize::from(!escape_ok);
        (first..self.lanes.len())
            .find(|&v| {
                let lane = &self.lanes[v];
                lane.credits > 0 && (lane.holder.is_none() || lane.holder == Some(worm))
            })
            .map(|v| v as u8)
    }

    /// Whether lane `vc` has a credit for the next flit of its held worm.
    pub fn can_send(&self, vc: u8) -> bool {
        self.lanes
            .get(vc as usize)
            .is_some_and(|lane| lane.credits > 0)
    }

    /// Consumes one credit on lane `vc` for a flit of `worm`, marking the
    /// lane held. Caller must have checked [`VcLink::can_send`]; a
    /// consume from an empty ledger is recorded as a violation.
    pub fn consume(&mut self, vc: u8, worm: u64) {
        let Some(lane) = self.lanes.get_mut(vc as usize) else {
            self.violations += 1;
            return;
        };
        if lane.credits == 0 {
            self.violations += 1;
            return;
        }
        lane.credits -= 1;
        lane.sent += 1;
        lane.holder = Some(worm);
    }

    /// Releases the lane hold once the worm's tail flit has dispatched.
    pub fn release(&mut self, vc: u8) {
        if let Some(lane) = self.lanes.get_mut(vc as usize) {
            lane.holder = None;
        }
    }

    /// Refunds credits returned by the peer. A refund that would exceed
    /// the lane's cap mints credit out of thin air — recorded as a
    /// violation and clamped so the ledger stays bounded.
    pub fn refund(&mut self, vc: u8, credits: u32) {
        let Some(lane) = self.lanes.get_mut(vc as usize) else {
            self.violations += 1;
            return;
        };
        lane.returned += credits as u64;
        lane.credits += credits;
        if lane.credits > lane.cap {
            self.violations += 1;
            lane.credits = lane.cap;
        }
    }

    /// Flits currently in flight (sent, credit not yet returned).
    pub fn in_flight(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.sent.saturating_sub(l.returned))
            .sum()
    }

    /// Audits every lane ledger; call at quiescence (in-flight flits
    /// report as imbalances).
    pub fn audit(&self) -> Result<(), String> {
        if self.violations > 0 {
            return Err(format!("{} credit violations", self.violations));
        }
        for (v, lane) in self.lanes.iter().enumerate() {
            lane.audit(v)?;
        }
        Ok(())
    }
}

/// An in-transit multi-flit transfer (header + data slots) holding — or
/// about to hold — one egress virtual channel from head to tail.
#[derive(Debug)]
struct Worm {
    /// Egress port fixed at head admission; body flits follow the head.
    out: usize,
    /// Destination of the transfer (re-resolves `escape_ok` on a route
    /// edit).
    dst: NodeId,
    /// Whether escape lane 0 may carry the worm: its egress is the
    /// destination's primary (deterministic) route. Resolved at
    /// admission and again on every route edit.
    escape_ok: bool,
    /// Lane allocated at head dispatch (`None` until the head moves).
    lane: Option<u8>,
    /// Flits of this transfer not yet dispatched (including the header).
    remaining: u64,
}

/// The lane state of a worm's next flit, as the lane gate needs it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WormLane {
    /// Egress port of the worm.
    pub(crate) out: usize,
    lane: Option<u8>,
    escape_ok: bool,
}

impl WormLane {
    /// The lane gate for the next flit of worm `id` on an egress with
    /// ledger `link`: `Some(lane)` when it may go (`Some(None)` on a link
    /// without VC flow control), `None` when it must wait. A worm keeps
    /// the lane its head took; a head takes the lowest free lane, lane 0
    /// only when its egress is the destination's primary route.
    pub(crate) fn gate(self, id: u64, link: Option<&VcLink>) -> Option<Option<u8>> {
        let Some(link) = link else {
            return Some(None);
        };
        match self.lane {
            Some(v) => link.can_send(v).then_some(Some(v)),
            None => link.allocate(id, self.escape_ok).map(Some),
        }
    }
}

/// The worms in transit through one switch, keyed by transaction id, and
/// the flits they have committed to each egress.
#[derive(Debug, Default)]
pub(crate) struct Worms {
    worms: BTreeMap<u64, Worm>,
    /// Undelivered flits of every worm routed toward each egress port.
    committed: Vec<u64>,
}

impl Worms {
    /// Whether `payload` is a body flit of a worm in transit, which fixed
    /// its egress at the head. `false` for a header (routed afresh) or an
    /// orphan data slot.
    pub(crate) fn joins(&self, payload: &FlitPayload) -> bool {
        match payload {
            FlitPayload::Data { txn_id, .. } => self.worms.contains_key(txn_id),
            _ => false,
        }
    }

    /// Records an admitted flit bound for `dst`, routed to `out`: a header
    /// opens its worm sized to the whole transfer; a data slot joins its
    /// header's worm, or — when the header raced a route change — becomes
    /// its own single-flit worm. `escape_ok` says whether `out` is the
    /// destination's primary route. Returns the egress of a worm the
    /// header replaced, whose waiting flits now follow the new one.
    pub(crate) fn admit(
        &mut self,
        payload: &FlitPayload,
        dst: NodeId,
        out: usize,
        escape_ok: bool,
        mode: FlitMode,
    ) -> Option<usize> {
        let worm = |remaining| Worm {
            out,
            dst,
            escape_ok,
            lane: None,
            remaining,
        };
        let (flits, replaced) = match payload {
            FlitPayload::Transaction(t) => {
                let flits = if t.kind.carries_data() && t.bytes > 0 {
                    1 + flits_for_transfer(mode, t.bytes as u64)
                } else {
                    1
                };
                let old = self.worms.insert(t.id, worm(flits));
                (flits, old)
            }
            FlitPayload::Data { txn_id, .. } => {
                if self.worms.contains_key(txn_id) {
                    return None;
                }
                self.worms.insert(*txn_id, worm(1));
                (1, None)
            }
            _ => return None,
        };
        if self.committed.len() <= out {
            self.committed.resize(out + 1, 0);
        }
        self.committed[out] += flits;
        let old = replaced?;
        self.committed[old.out] -= old.remaining;
        Some(old.out)
    }

    /// The egress and lane state of worm `id`.
    pub(crate) fn get(&self, id: u64) -> Option<WormLane> {
        self.worms.get(&id).map(|w| WormLane {
            out: w.out,
            lane: w.lane,
            escape_ok: w.escape_ok,
        })
    }

    /// Undelivered flits of every worm routed toward `out`.
    pub(crate) fn committed(&self, out: usize) -> u64 {
        self.committed.get(out).copied().unwrap_or(0)
    }

    /// Worms routed toward `out`.
    pub(crate) fn toward(&self, out: usize) -> usize {
        self.worms.values().filter(|w| w.out == out).count()
    }

    /// Worms in transit.
    pub(crate) fn len(&self) -> usize {
        self.worms.len()
    }

    /// Re-resolves every worm's escape eligibility after a route edit;
    /// `primary(dst)` is the destination's first route candidate.
    pub(crate) fn reroute(&mut self, primary: impl Fn(NodeId) -> Option<usize>) {
        for w in self.worms.values_mut() {
            w.escape_ok = primary(w.dst) == Some(w.out);
        }
    }

    /// Books a dispatched flit of worm `id` on `lane` (as granted by
    /// [`WormLane::gate`]): consumes its lane credit and, behind the
    /// tail, retires the worm and releases the lane. Returns whether the
    /// flit was the tail. A flit with no worm (not under wormhole
    /// queueing) books nothing.
    pub(crate) fn advance(&mut self, id: u64, link: Option<&mut VcLink>, lane: Option<u8>) -> bool {
        let Some(w) = self.worms.get_mut(&id) else {
            return false;
        };
        w.lane = lane;
        w.remaining = w.remaining.saturating_sub(1);
        self.committed[w.out] -= 1;
        let tail = w.remaining == 0;
        if tail {
            self.worms.remove(&id);
        }
        if let (Some(v), Some(link)) = (lane, link) {
            link.consume(v, id);
            if tail {
                link.release(v);
            }
        }
        tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_zero_is_reserved_for_escape_traffic() {
        let link = VcLink::new(VcConfig::default());
        assert_eq!(link.allocate(7, true), Some(0));
        assert_eq!(link.allocate(7, false), Some(1));
    }

    #[test]
    fn held_lanes_are_skipped_for_other_worms() {
        let mut link = VcLink::new(VcConfig {
            vcs: 3,
            buf_flits: 4,
        });
        link.consume(1, 7); // worm 7 holds lane 1
        assert_eq!(link.allocate(7, false), Some(1), "holder may reuse");
        assert_eq!(link.allocate(9, false), Some(2), "stranger skips to lane 2");
        link.consume(2, 9);
        assert_eq!(link.allocate(11, false), None, "adaptive lanes exhausted");
        assert_eq!(link.allocate(11, true), Some(0), "escape still open");
    }

    #[test]
    fn credits_roundtrip_and_audit_clean() {
        let mut link = VcLink::new(VcConfig {
            vcs: 2,
            buf_flits: 2,
        });
        link.consume(1, 5);
        link.consume(1, 5);
        assert!(!link.can_send(1));
        assert!(link.audit().is_err(), "in-flight flits are an imbalance");
        link.refund(1, 2);
        link.release(1);
        assert!(link.audit().is_ok(), "{:?}", link.audit());
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn overflow_refund_is_a_violation() {
        let mut link = VcLink::new(VcConfig {
            vcs: 2,
            buf_flits: 2,
        });
        link.refund(0, 1);
        assert_eq!(link.violations, 1);
        assert!(link.audit().is_err());
    }

    #[test]
    fn committed_flits_follow_admission_dispatch_and_replacement() {
        use fcc_proto::channel::{MemOpcode, Transaction, TransactionKind};

        let mode = FlitMode::Flit68;
        let write = |id, bytes| {
            FlitPayload::Transaction(Transaction {
                id,
                kind: TransactionKind::Mem(MemOpcode::MemWr),
                addr: 0,
                bytes,
                src: NodeId(1),
                dst: NodeId(2),
            })
        };
        let bytes = 2 * mode.payload_bytes() as u32;
        let mut worms = Worms::default();
        assert_eq!(
            worms.admit(&write(7, bytes), NodeId(2), 3, true, mode),
            None
        );
        assert_eq!(worms.committed(3), 3, "header plus two data slots");
        assert!(!worms.advance(7, None, None));
        assert_eq!(worms.committed(3), 2);
        // A header reusing id 7 replaces the worm and its commitment.
        assert_eq!(
            worms.admit(&write(7, 0), NodeId(2), 5, false, mode),
            Some(3)
        );
        assert_eq!((worms.committed(3), worms.committed(5)), (0, 1));
        assert!(
            worms.advance(7, None, None),
            "a lone header is its own tail"
        );
        assert_eq!((worms.len(), worms.committed(5)), (0, 0));
    }

    #[test]
    fn empty_consume_is_a_violation() {
        let mut link = VcLink::new(VcConfig {
            vcs: 2,
            buf_flits: 1,
        });
        link.consume(0, 3);
        link.consume(0, 3);
        assert_eq!(link.violations, 1);
    }
}
