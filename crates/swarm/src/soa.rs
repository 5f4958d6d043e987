//! Struct-of-arrays mirrors of the hot per-round peer fields.
//!
//! The round loop's membership scans (allocation order, completion
//! detection, whitewash/collusion prefilters, neighbor selection, the
//! adjacency rebuild, every liveness query) touch only a few bits of
//! state per peer, but the naive scans stride over the full
//! [`PeerState`](crate::peer::PeerState) structs — hundreds of bytes per
//! peer once bitfields, ledgers and neighbor sets are counted. At fig4
//! scale that turns every pass into a cache-miss walk. [`HotPeers`] packs
//! the scanned bits into contiguous arrays indexed by peer slot so the
//! per-round passes read cache-dense memory.
//!
//! The arrays are written in lockstep with the authoritative `PeerState`
//! mutations (spawn, depart, outage start/end, piece acquisition); debug
//! builds cross-check every consumer against a fresh scan of the peer
//! structs, and the `hotpath_equivalence` battery pins result equality
//! against the naive scans end to end.

use crate::config::PeerTags;

/// Peer slot is still participating (no departure recorded).
const ACTIVE: u8 = 1 << 0;
/// Peer slot is held dark by a fault-schedule outage.
const OFFLINE: u8 = 1 << 1;
/// Peer churns identities (`tags.whitewash_interval` set).
const WHITEWASH: u8 = 1 << 2;
/// Peer belongs to a collusion ring (`tags.collusion_ring` set).
const COLLUSION: u8 = 1 << 3;
/// Peer holds at least one outstanding T-Chain obligation. The dirty-set
/// round loop must visit obliged peers every round (an obligation can be
/// granted toward a non-neighbor, so candidate-side dirtiness alone would
/// miss them); this bit keeps that check off the full `PeerState` structs.
const OBLIGED: u8 = 1 << 4;
/// Peer connects to every other active peer (`tags.large_view` set).
const LARGE_VIEW: u8 = 1 << 5;

/// Hot per-peer round state in struct-of-arrays layout, indexed by peer
/// slot (`PeerId::index()`).
#[derive(Clone, Debug, Default)]
pub(crate) struct HotPeers {
    /// Packed status bits; see the flag constants above.
    flags: Vec<u8>,
    /// Number of usable pieces (`have.count_ones()` kept incrementally;
    /// `have` bits are never cleared, so increments suffice).
    have_count: Vec<u32>,
}

impl HotPeers {
    /// Registers a freshly spawned peer slot. `have_count` is nonzero
    /// only for whitewash successors, which inherit pieces at birth.
    pub(crate) fn push(&mut self, tags: &PeerTags, have_count: u32) {
        let mut f = ACTIVE;
        if tags.whitewash_interval.is_some() {
            f |= WHITEWASH;
        }
        if tags.collusion_ring.is_some() {
            f |= COLLUSION;
        }
        if tags.large_view {
            f |= LARGE_VIEW;
        }
        self.flags.push(f);
        self.have_count.push(have_count);
    }

    /// Number of peer slots tracked (always `peers.len()`).
    pub(crate) fn len(&self) -> usize {
        self.flags.len()
    }

    /// Marks a slot departed (any departure kind).
    pub(crate) fn retire(&mut self, idx: usize) {
        self.flags[idx] &= !ACTIVE;
    }

    /// Sets or clears the outage bit.
    pub(crate) fn set_offline(&mut self, idx: usize, offline: bool) {
        if offline {
            self.flags[idx] |= OFFLINE;
        } else {
            self.flags[idx] &= !OFFLINE;
        }
    }

    /// Records one more usable piece for the slot.
    pub(crate) fn add_piece(&mut self, idx: usize) {
        self.have_count[idx] += 1;
    }

    /// Usable-piece count of the slot.
    pub(crate) fn have_count(&self, idx: usize) -> u32 {
        self.have_count[idx]
    }

    /// Mirror of `PeerState::is_active`; false for slots never spawned.
    pub(crate) fn is_active(&self, idx: usize) -> bool {
        self.flags.get(idx).is_some_and(|&f| f & ACTIVE != 0)
    }

    /// Mirror of `is_active && !offline` (can exchange bytes this round);
    /// false for slots never spawned.
    pub(crate) fn is_online(&self, idx: usize) -> bool {
        self.flags
            .get(idx)
            .is_some_and(|&f| f & (ACTIVE | OFFLINE) == ACTIVE)
    }

    /// Sets or clears the outstanding-obligations bit (kept in lockstep
    /// with `PeerState::obligations` emptiness).
    pub(crate) fn set_obliged(&mut self, idx: usize, obliged: bool) {
        if obliged {
            self.flags[idx] |= OBLIGED;
        } else {
            self.flags[idx] &= !OBLIGED;
        }
    }

    /// Does the slot hold outstanding obligations?
    pub(crate) fn is_obliged(&self, idx: usize) -> bool {
        self.flags[idx] & OBLIGED != 0
    }

    /// Online slot that whitewashes its identity.
    pub(crate) fn whitewash_online(&self, idx: usize) -> bool {
        self.is_online(idx) && self.flags[idx] & WHITEWASH != 0
    }

    /// Active slot (online or not) with a large view.
    pub(crate) fn large_view_active(&self, idx: usize) -> bool {
        self.is_active(idx) && self.flags[idx] & LARGE_VIEW != 0
    }

    /// Online slot that belongs to a collusion ring.
    pub(crate) fn colluder_online(&self, idx: usize) -> bool {
        self.is_online(idx) && self.flags[idx] & COLLUSION != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_track_lifecycle() {
        let mut hot = HotPeers::default();
        hot.push(&PeerTags::compliant(), 0);
        let ww = PeerTags {
            whitewash_interval: Some(4),
            ..PeerTags::compliant()
        };
        hot.push(&ww, 3);
        assert_eq!(hot.len(), 2);
        assert!(hot.is_active(0) && hot.is_online(0));
        assert!(!hot.whitewash_online(0) && !hot.colluder_online(0));
        assert!(hot.whitewash_online(1));
        assert!(
            !hot.is_active(2) && !hot.is_online(2),
            "unspawned slots are inactive"
        );
        assert_eq!(hot.have_count(1), 3);
        hot.add_piece(1);
        assert_eq!(hot.have_count(1), 4);
        hot.set_offline(1, true);
        assert!(hot.is_active(1) && !hot.is_online(1) && !hot.whitewash_online(1));
        hot.set_offline(1, false);
        assert!(hot.is_online(1));
        hot.retire(0);
        assert!(!hot.is_active(0) && !hot.is_online(0));
    }

    #[test]
    fn large_view_bit_follows_activity_not_outages() {
        let mut hot = HotPeers::default();
        let lv = PeerTags {
            large_view: true,
            ..PeerTags::compliant()
        };
        hot.push(&PeerTags::compliant(), 0);
        hot.push(&lv, 0);
        assert!(!hot.large_view_active(0) && hot.large_view_active(1));
        hot.set_offline(1, true);
        assert!(
            hot.large_view_active(1),
            "an outage keeps the identity's edges"
        );
        hot.retire(1);
        assert!(!hot.large_view_active(1));
    }

    #[test]
    fn obliged_bit_toggles_independently() {
        let mut hot = HotPeers::default();
        hot.push(&PeerTags::compliant(), 0);
        assert!(!hot.is_obliged(0));
        hot.set_obliged(0, true);
        assert!(hot.is_obliged(0) && hot.is_online(0));
        hot.set_offline(0, true);
        assert!(hot.is_obliged(0), "outage must not clear obligations");
        hot.set_obliged(0, false);
        assert!(!hot.is_obliged(0));
    }
}
