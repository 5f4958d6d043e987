//! Per-peer simulator state.
//!
//! Piece possession is tracked in synchronized bitfields:
//!
//! * `have` — usable pieces (count toward completion),
//! * `locked` — T-Chain encrypted pieces awaiting reciprocation
//!   (forwardable but not usable),
//! * `inflight` — pieces some transfer toward this peer is fetching,
//! * derived caches `offer = have ∪ locked` and
//!   `wants = ¬offer \ inflight`, kept incrementally so the interest
//!   test "does *i* need anything *j* offers" is one word-level AND of
//!   `wants(i)` with `offer(j)`. `wants` is always dense, so that AND
//!   runs slice against slice.
//!
//! All transitions go through the `acquire_usable` / `lock_piece` /
//! `unlock_piece` / `discard_locked` and `inflight_insert` /
//! `inflight_remove` / `inflight_clear` methods, which maintain the
//! caches; the bitfields themselves are private.

use std::collections::BTreeSet;

use coop_des::SimTime;
use coop_incentives::ledger::{ContributionLedger, DeficitLedger};
use coop_incentives::{Mechanism, Obligation, PeerId};
use coop_piece::Bitfield;

use crate::config::PeerTags;

/// Why a peer is no longer active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Departure {
    /// Finished the download and left.
    Completed(SimTime),
    /// Retired this identity via whitewashing (a successor id exists).
    Whitewashed(SimTime),
    /// Removed by the fault schedule (churn departure or seeder failure).
    Churned(SimTime),
}

/// Mutable state of one peer identity.
///
/// `Clone` deep-copies everything including the boxed mechanism (via
/// [`Mechanism::clone_box`]) — the substrate of mid-run checkpointing.
#[derive(Clone)]
pub struct PeerState {
    /// This peer's id.
    pub id: PeerId,
    /// Upload capacity in bytes/second.
    pub capacity_bps: f64,
    /// Behavior flags.
    pub tags: PeerTags,
    /// Arrival time of this identity.
    pub arrival: SimTime,
    /// The round in which this identity arrived.
    pub arrival_round: u64,
    have: Bitfield,
    locked: Bitfield,
    offer: Bitfield,
    wants: Bitfield,
    inflight: Bitfield,
    /// How many of the in-flight transfers toward this peer are
    /// conditional (will become obligations on delivery).
    pub inflight_conditional: usize,
    /// Contribution accounting.
    pub ledger: ContributionLedger,
    /// FairTorrent deficits.
    pub deficits: DeficitLedger,
    /// Outstanding obligations (pieces this peer holds locked).
    pub obligations: Vec<Obligation>,
    /// The allocation policy. Taken out during allocation to satisfy the
    /// borrow checker; always restored before the round ends.
    pub mechanism: Option<Box<dyn Mechanism>>,
    /// Connected neighbors (ordered for determinism).
    pub neighbors: BTreeSet<PeerId>,
    /// When this peer got its first piece (locked or usable), if ever.
    pub bootstrap_time: Option<SimTime>,
    /// Set when the peer departs.
    pub departure: Option<Departure>,
    /// True while the fault schedule holds this peer in an outage: the
    /// peer keeps its bitfield and neighbors but neither uploads nor
    /// downloads until the matching outage-end round.
    pub offline: bool,
    /// Usable bytes received (plain deliveries plus unlocks).
    pub bytes_received_usable: u64,
    /// Raw bytes received (including still-locked and later-expired
    /// pieces).
    pub bytes_received_raw: u64,
    /// Bytes uploaded (completed transfers only).
    pub bytes_sent: u64,
    /// Bytes' worth of pieces this identity was born with (whitewash
    /// successors inherit their predecessor's pieces).
    pub bytes_inherited: u64,
}

impl PeerState {
    /// Creates a fresh peer with no pieces.
    pub fn new(
        id: PeerId,
        capacity_bps: f64,
        tags: PeerTags,
        arrival: SimTime,
        arrival_round: u64,
        num_pieces: u32,
        mechanism: Box<dyn Mechanism>,
    ) -> Self {
        // Dense all-ones: the words of a full run list OR-ed into zeros.
        let mut wants = Bitfield::new(num_pieces);
        wants.union_with(&Bitfield::full(num_pieces));
        PeerState {
            id,
            capacity_bps,
            tags,
            arrival,
            arrival_round,
            have: Bitfield::new(num_pieces),
            locked: Bitfield::new(num_pieces),
            offer: Bitfield::new(num_pieces),
            wants,
            inflight: Bitfield::new(num_pieces),
            inflight_conditional: 0,
            ledger: ContributionLedger::new(),
            deficits: DeficitLedger::new(),
            obligations: Vec::new(),
            mechanism: Some(mechanism),
            neighbors: BTreeSet::new(),
            bootstrap_time: None,
            departure: None,
            offline: false,
            bytes_received_usable: 0,
            bytes_received_raw: 0,
            bytes_sent: 0,
            bytes_inherited: 0,
        }
    }

    /// Is this identity still participating?
    pub fn is_active(&self) -> bool {
        self.departure.is_none()
    }

    /// Usable pieces.
    pub fn have(&self) -> &Bitfield {
        &self.have
    }

    /// Locked (encrypted) pieces.
    pub fn locked(&self) -> &Bitfield {
        &self.locked
    }

    /// Pieces this peer can offer for upload (`have ∪ locked`).
    pub fn offer(&self) -> &Bitfield {
        &self.offer
    }

    /// Pieces this peer still wants: neither held, locked, nor being
    /// fetched. Always dense.
    pub fn wants(&self) -> &Bitfield {
        &self.wants
    }

    /// Pieces some transfer toward this peer is currently fetching (any
    /// source), so they are not requested twice.
    pub fn inflight(&self) -> &Bitfield {
        &self.inflight
    }

    /// Records that a transfer of piece `p` toward this peer started.
    pub fn inflight_insert(&mut self, p: u32) {
        self.inflight.set(p);
        self.wants.unset(p);
    }

    /// Records that the transfer of piece `p` toward this peer ended
    /// (delivered, lost, stalled or dropped).
    pub fn inflight_remove(&mut self, p: u32) {
        self.inflight.unset(p);
        if !self.offer.get(p) {
            self.wants.set(p);
        }
    }

    /// Forgets every in-flight piece (all transfers toward this peer were
    /// dropped); each one that is not held becomes wanted again.
    pub fn inflight_clear(&mut self) {
        for p in self.inflight.iter_ones() {
            if !self.offer.get(p) {
                self.wants.set(p);
            }
        }
        self.inflight = Bitfield::new(self.inflight.len());
    }

    /// Marks piece `p` usable (plain delivery).
    pub fn acquire_usable(&mut self, p: u32) {
        self.have.set(p);
        self.locked.unset(p);
        self.offer.set(p);
        self.wants.unset(p);
    }

    /// Marks piece `p` locked (encrypted T-Chain delivery).
    pub fn lock_piece(&mut self, p: u32) {
        debug_assert!(!self.have.get(p), "locking an already-usable piece");
        self.locked.set(p);
        self.offer.set(p);
        self.wants.unset(p);
    }

    /// Promotes a locked piece to usable (key released). Returns false if
    /// the piece was not locked (e.g. already discarded).
    pub fn unlock_piece(&mut self, p: u32) -> bool {
        if !self.locked.get(p) {
            return false;
        }
        self.locked.unset(p);
        self.have.set(p);
        true
    }

    /// Discards an expired locked piece; it becomes absent (and thus
    /// re-downloadable). Returns false if the piece was not locked.
    pub fn discard_locked(&mut self, p: u32) -> bool {
        if !self.locked.get(p) {
            return false;
        }
        self.locked.unset(p);
        if !self.have.get(p) {
            self.offer.unset(p);
            if !self.inflight.get(p) {
                self.wants.set(p);
            }
        }
        true
    }

    /// True once every piece is usable.
    pub fn is_complete(&self) -> bool {
        self.have.is_complete()
    }

    /// Number of usable pieces.
    pub fn piece_count(&self) -> u32 {
        self.have.count_ones()
    }

    /// Marks the first-piece bootstrap instant if not already recorded.
    pub fn record_bootstrap(&mut self, now: SimTime) {
        if self.bootstrap_time.is_none() {
            self.bootstrap_time = Some(now);
        }
    }

    /// Folds each possession bitfield into its interval-run representation
    /// where that is strictly smaller (departed identities are typically
    /// complete, so `have`/`offer` collapse to a single run and
    /// `locked`/`inflight` to none). Observationally a no-op: every
    /// [`Bitfield`] query answers identically in either representation.
    /// `wants` stays dense, so the interest kernel never meets a run list
    /// on the downloader side.
    pub(crate) fn compress_storage(&mut self) {
        self.have.compress();
        self.locked.compress();
        self.offer.compress();
        self.inflight.compress();
    }
}

impl std::fmt::Debug for PeerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerState")
            .field("id", &self.id)
            .field("capacity_bps", &self.capacity_bps)
            .field("pieces", &self.have.count_ones())
            .field("locked", &self.locked.count_ones())
            .field("active", &self.is_active())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_incentives::{build_mechanism, MechanismKind, MechanismParams};
    use proptest::prelude::*;

    fn peer(num_pieces: u32) -> PeerState {
        PeerState::new(
            PeerId::new(0),
            1000.0,
            PeerTags::compliant(),
            SimTime::ZERO,
            0,
            num_pieces,
            build_mechanism(MechanismKind::Altruism, MechanismParams::default()),
        )
    }

    /// Checks every cache against its definition, piece by piece, and
    /// that `wants` is dense.
    fn invariants(p: &PeerState) {
        assert!(!p.wants().is_compressed(), "wants must stay dense");
        for i in 0..p.have().len() {
            let have = p.have().get(i);
            let locked = p.locked().get(i);
            let absent = !(have || locked);
            assert!(!(have && locked), "piece {i} both usable and locked");
            assert_eq!(p.offer().get(i), have || locked, "offer cache at {i}");
            assert_eq!(
                p.wants().get(i),
                absent && !p.inflight().get(i),
                "wants cache at {i}"
            );
        }
    }

    #[test]
    fn fresh_peer_needs_everything() {
        let p = peer(8);
        assert!(p.is_active());
        assert!(!p.is_complete());
        assert_eq!(p.piece_count(), 0);
        assert_eq!(p.wants().count_ones(), 8);
        invariants(&p);
    }

    #[test]
    fn lock_then_unlock_flow() {
        let mut p = peer(8);
        p.lock_piece(3);
        invariants(&p);
        assert!(!p.wants().get(3));
        assert!(p.offer().get(3));
        assert_eq!(p.piece_count(), 0);
        assert!(p.unlock_piece(3));
        invariants(&p);
        assert_eq!(p.piece_count(), 1);
        assert!(!p.unlock_piece(3), "double unlock is a no-op");
    }

    #[test]
    fn lock_then_discard_flow() {
        let mut p = peer(8);
        p.lock_piece(2);
        assert!(p.discard_locked(2));
        invariants(&p);
        assert!(p.wants().get(2), "discarded piece becomes wanted again");
        assert!(!p.discard_locked(2));
    }

    #[test]
    fn discard_after_unlock_keeps_piece() {
        let mut p = peer(8);
        p.lock_piece(1);
        p.unlock_piece(1);
        assert!(!p.discard_locked(1));
        assert!(p.have().get(1));
        invariants(&p);
    }

    #[test]
    fn inflight_pieces_not_requested_twice() {
        let mut p = peer(8);
        p.inflight_insert(2);
        assert!(!p.wants().get(2));
        invariants(&p);
        p.inflight_remove(2);
        assert!(
            p.wants().get(2),
            "an ended transfer makes the piece wanted again"
        );
        invariants(&p);
    }

    #[test]
    fn completion_requires_all_usable() {
        let mut p = peer(4);
        for i in 0..4 {
            p.lock_piece(i);
        }
        assert!(!p.is_complete(), "locked pieces do not complete a file");
        for i in 0..4 {
            p.unlock_piece(i);
        }
        assert!(p.is_complete());
        invariants(&p);
    }

    #[test]
    fn bootstrap_recorded_once() {
        let mut p = peer(4);
        p.record_bootstrap(SimTime::from_secs(5));
        p.record_bootstrap(SimTime::from_secs(9));
        assert_eq!(p.bootstrap_time, Some(SimTime::from_secs(5)));
    }

    proptest! {
        /// Under any interleaving of piece transitions, in-flight
        /// bookkeeping and storage compression, `wants` equals
        /// `absent \ inflight` with `absent = ¬(have ∪ locked)`, and
        /// stays dense. 130 pieces span three words, one partial.
        #[test]
        fn wants_tracks_absent_minus_inflight(
            ops in proptest::collection::vec((0u8..8, 0u32..130), 0..120),
        ) {
            let mut p = peer(130);
            for (op, i) in ops {
                match op {
                    0 => p.acquire_usable(i),
                    1 => {
                        if !p.have().get(i) {
                            p.lock_piece(i);
                        }
                    }
                    2 => {
                        p.unlock_piece(i);
                    }
                    3 => {
                        p.discard_locked(i);
                    }
                    4 => p.inflight_insert(i),
                    5 => p.inflight_remove(i),
                    6 => p.inflight_clear(),
                    _ => p.compress_storage(),
                }
                prop_assert!(!p.wants().is_compressed());
                for k in 0..130 {
                    let absent = !(p.have().get(k) || p.locked().get(k));
                    prop_assert_eq!(p.wants().get(k), absent && !p.inflight().get(k));
                }
            }
        }
    }
}
