//! Intra-simulation sharding: one swarm's round, split across scoped
//! worker threads.
//!
//! Three read-only phases of the round loop shard over contiguous
//! peer-ID ranges (the executor's slot-ordered merge pattern, applied
//! *inside* a sim):
//!
//! 1. dirty-set CSR expansion (per-thread visit bitmaps, OR-merged —
//!    order-independent by construction),
//! 2. the end-of-round mechanism hooks (each peer's `on_round_end`
//!    reads shared state and mutates only its own taken-out mechanism
//!    box, so any interleaving yields the same result),
//! 3. the seeder's candidate `needs()` scan (per-range vectors
//!    concatenated in range order, which *is* id order).
//!
//! Nothing here draws RNG, touches telemetry, or writes shared state, so
//! artifacts are byte-identical for any `--shards K` — pinned by the
//! sharded rows of the profile/byte-identity batteries.

use std::ops::Range;

use coop_incentives::hash::FastMap;
use coop_incentives::ledger::{ContributionLedger, DeficitLedger, ReputationTable};
use coop_incentives::{Obligation, PeerId, SwarmView};
use coop_piece::Bitfield;

use crate::peer::PeerState;
use crate::sim::SEEDER_ID;
use crate::soa::HotPeers;
use crate::transfer::TransferTable;

/// Below this many items a phase runs sequentially: thread spawn costs
/// more than the scan. Purely a latency knob — results are identical
/// either way.
pub(crate) const SHARD_MIN_ITEMS: usize = 256;

/// Splits `len` items into at most `k` contiguous, disjoint ranges that
/// cover `0..len` in order. The first ranges carry the remainder, so no
/// range is more than one item longer than another.
pub(crate) fn shard_ranges(len: usize, k: usize) -> Vec<Range<usize>> {
    if len == 0 || k == 0 {
        return Vec::new();
    }
    let k = k.min(len);
    let base = len / k;
    let extra = len % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Peer `id`'s active-neighbor candidate row in the flat CSR adjacency
/// (the free-function twin of `Simulation::round_candidates`, usable
/// from shard workers that only hold the raw arrays).
pub(crate) fn candidates_of<'a>(adj: &'a [PeerId], adj_off: &[u32], id: u32) -> &'a [PeerId] {
    let i = id as usize;
    match (adj_off.get(i), adj_off.get(i + 1)) {
        (Some(&a), Some(&b)) => &adj[a as usize..b as usize],
        _ => &[],
    }
}

/// Does active peer `who` need at least one piece `from` can offer?
/// The single authority on interest: `Simulation::needs` delegates here,
/// and shard workers call it directly with borrowed arrays. Liveness is
/// read from the packed [`HotPeers`] flags (the seeder's slot index is
/// never spawned, so it reads as offline there).
///
/// The word-level AND of `who`'s dense `wants` with the uploader's offer
/// runs first; the transfer-table probe only answers when it fails.
pub(crate) fn needs_with(
    peers: &[PeerState],
    hot: &HotPeers,
    transfers: &TransferTable,
    seeder_bf: &Bitfield,
    seeder_online: bool,
    who: PeerId,
    from: PeerId,
) -> bool {
    if who == from || !hot.is_online(who.index() as usize) {
        return false;
    }
    let offer = if from == SEEDER_ID {
        seeder_online.then_some(seeder_bf)
    } else if hot.is_online(from.index() as usize) {
        Some(peers[from.index() as usize].offer())
    } else {
        None
    };
    let wants = peers[who.index() as usize].wants();
    // A partially transferred piece keeps the pair interested, even while
    // the uploader is offline; without this, the uploader would never
    // re-select the target and the transfer could stall one piece short
    // of completion.
    offer.is_some_and(|offer| wants.intersects(offer)) || transfers.get(from, who).is_some()
}

/// The plain-data slice of simulation state a shard worker needs to
/// serve [`SwarmView`] queries. Deliberately excludes the recorder, the
/// profiler, and the seed tree: workers observe, they never record or
/// draw.
pub(crate) struct ShardCtx<'a> {
    pub peers: &'a [PeerState],
    pub hot: &'a HotPeers,
    pub adj: &'a [PeerId],
    pub adj_off: &'a [u32],
    pub transfers: &'a TransferTable,
    pub seeder_bf: &'a Bitfield,
    pub seeder_online: bool,
    pub round_idx: u64,
    pub trusted_reputation: bool,
    pub trusted_cache: &'a FastMap<PeerId, f64>,
    pub reputation: &'a ReputationTable,
    /// Consensus-reputation scores by slot when the population runs the
    /// consensus mechanism; they then override both reputation sources,
    /// exactly like [`Simulation::reputation_of`](crate::Simulation).
    pub consensus_scores: Option<&'a [f64]>,
    pub piece_size: u64,
}

impl ShardCtx<'_> {
    fn needs(&self, who: PeerId, from: PeerId) -> bool {
        needs_with(
            self.peers,
            self.hot,
            self.transfers,
            self.seeder_bf,
            self.seeder_online,
            who,
            from,
        )
    }

    fn is_active(&self, id: PeerId) -> bool {
        self.hot.is_active(id.index() as usize)
    }
}

/// A read-only window onto one allocating peer, served from borrowed
/// arrays instead of `&Simulation` — the thread-shareable twin of
/// `SimView`, answer-for-answer identical (pinned by the sharded
/// equivalence batteries).
pub(crate) struct ShardView<'a> {
    ctx: &'a ShardCtx<'a>,
    me: PeerId,
}

impl<'a> ShardView<'a> {
    pub(crate) fn new(ctx: &'a ShardCtx<'a>, me: PeerId) -> Self {
        ShardView { ctx, me }
    }

    fn my_state(&self) -> &PeerState {
        &self.ctx.peers[self.me.index() as usize]
    }
}

impl SwarmView for ShardView<'_> {
    fn me(&self) -> PeerId {
        self.me
    }

    fn round(&self) -> u64 {
        self.ctx.round_idx
    }

    fn neighbors(&self) -> &[PeerId] {
        candidates_of(self.ctx.adj, self.ctx.adj_off, self.me.index())
    }

    fn peer_needs_from_me(&self, peer: PeerId) -> bool {
        self.ctx.needs(peer, self.me)
    }

    fn i_need_from(&self, peer: PeerId) -> bool {
        self.ctx.needs(self.me, peer)
    }

    fn peer_needs_from(&self, who: PeerId, from: PeerId) -> bool {
        self.ctx.needs(who, from)
    }

    fn piece_count(&self, peer: PeerId) -> u32 {
        if self.ctx.is_active(peer) {
            self.ctx.peers[peer.index() as usize].piece_count()
        } else {
            0
        }
    }

    fn reputation(&self, peer: PeerId) -> f64 {
        if let Some(scores) = self.ctx.consensus_scores {
            return scores.get(peer.index() as usize).copied().unwrap_or(0.0);
        }
        if self.ctx.trusted_reputation {
            self.ctx.trusted_cache.get(&peer).copied().unwrap_or(0.0)
        } else {
            self.ctx.reputation.reputation(peer)
        }
    }

    fn ledger(&self) -> &ContributionLedger {
        &self.my_state().ledger
    }

    fn deficits(&self) -> &DeficitLedger {
        &self.my_state().deficits
    }

    fn obligations(&self) -> &[Obligation] {
        &self.my_state().obligations
    }

    fn uploading_to(&self, peer: PeerId) -> bool {
        self.ctx.transfers.get(self.me, peer).is_some()
    }

    fn obligation_count(&self, peer: PeerId) -> usize {
        if self.ctx.is_active(peer) {
            // Conditional in-flight pieces count toward the backlog: they
            // become obligations on delivery, and uploaders that ignore
            // them overfill slow receivers faster than they can
            // reciprocate.
            let p = &self.ctx.peers[peer.index() as usize];
            p.obligations.len() + p.inflight_conditional
        } else {
            0
        }
    }

    fn piece_size(&self) -> u64 {
        self.ctx.piece_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeerTags;
    use crate::transfer::InFlight;
    use coop_des::SimTime;
    use coop_incentives::{build_mechanism, GrantReason, MechanismKind, MechanismParams};
    use proptest::prelude::*;

    const PIECES: u32 = 70;

    fn peer(id: u32) -> PeerState {
        PeerState::new(
            PeerId::new(id),
            1000.0,
            PeerTags::compliant(),
            SimTime::ZERO,
            0,
            PIECES,
            build_mechanism(MechanismKind::Altruism, MechanismParams::default()),
        )
    }

    fn start(transfers: &mut TransferTable, from: PeerId, to: PeerId, piece: u32) {
        transfers.start(
            from,
            to,
            InFlight {
                piece,
                piece_len: 10,
                bytes_done: 0,
                condition: None,
                reason: GrantReason::Altruism,
                last_progress_round: 0,
            },
        );
    }

    /// The interest rule written out piece by piece from its definition,
    /// with no `wants` cache: an open `from → who` transfer, or a piece
    /// the online uploader offers that `who` neither holds, holds locked,
    /// nor is fetching.
    fn reference(
        peers: &[PeerState],
        hot: &HotPeers,
        transfers: &TransferTable,
        seeder_online: bool,
        who: PeerId,
        from: PeerId,
    ) -> bool {
        let online = |id: PeerId| hot.is_online(id.index() as usize);
        if who == from || !online(who) {
            return false;
        }
        if transfers.get(from, who).is_some() {
            return true;
        }
        let uploader_online = if from == SEEDER_ID {
            seeder_online
        } else {
            online(from)
        };
        let w = &peers[who.index() as usize];
        uploader_online
            && (0..PIECES).any(|p| {
                let offered = from == SEEDER_ID || peers[from.index() as usize].offer().get(p);
                offered && !w.have().get(p) && !w.locked().get(p) && !w.inflight().get(p)
            })
    }

    #[test]
    fn open_transfer_keeps_interest_while_the_uploader_is_offline() {
        let seeder_bf = Bitfield::full(PIECES);
        let mut peers = vec![peer(0), peer(1)];
        let mut hot = HotPeers::default();
        hot.push(&PeerTags::compliant(), 0);
        hot.push(&PeerTags::compliant(), 0);
        peers[0].acquire_usable(5);
        let (up, down) = (PeerId::new(0), PeerId::new(1));
        let mut transfers = TransferTable::new();
        peers[1].inflight_insert(5);
        start(&mut transfers, up, down, 5);
        let needs = |peers: &[PeerState], hot: &HotPeers, t: &TransferTable| {
            needs_with(peers, hot, t, &seeder_bf, true, down, up)
        };
        // The only piece the uploader offers is already in flight: the
        // word AND finds nothing, the open transfer still answers yes.
        assert!(!peers[1].wants().intersects(peers[0].offer()));
        assert!(needs(&peers, &hot, &transfers));
        hot.set_offline(0, true);
        assert!(
            needs(&peers, &hot, &transfers),
            "offline uploader, open transfer"
        );
        assert_eq!(
            needs(&peers, &hot, &transfers),
            reference(&peers, &hot, &transfers, true, down, up)
        );
        // Without the transfer an offline uploader offers nothing.
        let empty = TransferTable::new();
        peers[1].inflight_remove(5);
        assert!(!needs(&peers, &hot, &empty));
        hot.set_offline(0, false);
        assert!(needs(&peers, &hot, &empty));
        // An offline downloader needs nothing, transfer or not.
        hot.set_offline(1, true);
        assert!(!needs(&peers, &hot, &transfers));
    }

    #[test]
    fn ranges_are_balanced() {
        assert_eq!(shard_ranges(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(shard_ranges(4, 8), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(shard_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(shard_ranges(5, 1), vec![0..5]);
        assert_eq!(shard_ranges(7, 0), Vec::<Range<usize>>::new());
    }

    proptest! {
        /// For any dirty-set size and any shard count, the ranges cover
        /// `0..len` exactly once, in order, disjointly — so a partition
        /// of the *sorted* dirty ids into these ranges is a partition
        /// into contiguous peer-ID ranges, and concatenating per-range
        /// results in range order reproduces the sequential order.
        #[test]
        fn ranges_cover_disjointly_for_any_k(len in 0usize..10_000, k in 0usize..64) {
            let ranges = shard_ranges(len, k);
            if len == 0 || k == 0 {
                prop_assert!(ranges.is_empty());
                return Ok(());
            }
            prop_assert!(ranges.len() <= k);
            let mut expect_start = 0usize;
            let mut min_len = usize::MAX;
            let mut max_len = 0usize;
            for r in &ranges {
                prop_assert_eq!(r.start, expect_start, "gap or overlap at {}", r.start);
                prop_assert!(r.end > r.start, "empty range");
                min_len = min_len.min(r.len());
                max_len = max_len.max(r.len());
                expect_start = r.end;
            }
            prop_assert_eq!(expect_start, len, "ranges must cover to len");
            prop_assert!(max_len - min_len <= 1, "ranges must be balanced");
        }

        /// Over random swarms — pieces held, locked or in flight, peers
        /// online, offline or departed, random open transfers, seeder on
        /// or off — the word-level kernel answers every ordered pair
        /// (seeder included) exactly as the per-piece reference does.
        #[test]
        fn needs_with_matches_the_per_piece_reference(
            states in proptest::collection::vec(
                proptest::collection::vec((0u8..5, 0u32..PIECES), 0..40),
                4,
            ),
            liveness in proptest::collection::vec(0u8..3, 4),
            pairs in proptest::collection::vec((0u32..5, 0u32..4, 0u32..PIECES), 0..6),
            seeder_online in any::<bool>(),
        ) {
            let seeder_bf = Bitfield::full(PIECES);
            let mut peers: Vec<PeerState> = (0..4).map(peer).collect();
            let mut hot = HotPeers::default();
            for (i, ops) in states.iter().enumerate() {
                hot.push(&PeerTags::compliant(), 0);
                let p = &mut peers[i];
                for &(op, piece) in ops {
                    match op {
                        0 => p.acquire_usable(piece),
                        1 => {
                            if !p.have().get(piece) {
                                p.lock_piece(piece);
                            }
                        }
                        2 => {
                            p.discard_locked(piece);
                        }
                        3 => p.inflight_insert(piece),
                        _ => p.inflight_remove(piece),
                    }
                }
                match liveness[i] {
                    1 => hot.set_offline(i, true),
                    2 => hot.retire(i),
                    _ => {}
                }
            }
            let mut transfers = TransferTable::new();
            for &(from, to, piece) in &pairs {
                // Uploader index 4 stands for the seeder.
                let from = if from == 4 { SEEDER_ID } else { PeerId::new(from) };
                let to = PeerId::new(to);
                if from != to && transfers.get(from, to).is_none() {
                    start(&mut transfers, from, to, piece);
                }
            }
            let ids: Vec<PeerId> = (0..4).map(PeerId::new).chain([SEEDER_ID]).collect();
            for &who in &ids[..4] {
                for &from in &ids {
                    prop_assert_eq!(
                        needs_with(&peers, &hot, &transfers, &seeder_bf, seeder_online, who, from),
                        reference(&peers, &hot, &transfers, seeder_online, who, from),
                        "who {:?} from {:?}", who, from
                    );
                }
            }
        }
    }
}
