//! In-flight transfer bookkeeping.
//!
//! Grants are byte-granular while pieces are discrete, so a transfer
//! accumulates bytes across grants (and rounds) until the piece length is
//! reached. One transfer is in flight per (uploader, downloader) pair at a
//! time, mirroring a single pipelined request.

use std::collections::BTreeSet;

use coop_incentives::hash::FastMap;
use coop_incentives::{GrantReason, PeerId, ReciprocationCondition};

/// A partially transferred piece.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InFlight {
    /// The piece being moved.
    pub piece: u32,
    /// Full length of the piece in bytes.
    pub piece_len: u64,
    /// Bytes transferred so far.
    pub bytes_done: u64,
    /// Reciprocation condition attached when the transfer started (T-Chain
    /// encrypted delivery), if any.
    pub condition: Option<ReciprocationCondition>,
    /// Mechanism component that initiated the transfer.
    pub reason: GrantReason,
    /// Round of the most recent byte of progress (stall detection).
    pub last_progress_round: u64,
}

impl InFlight {
    /// Bytes still missing.
    pub fn remaining(&self) -> u64 {
        self.piece_len - self.bytes_done
    }
}

/// All in-flight transfers, keyed by (uploader, downloader), with an
/// index in each direction: an uploader enumerates its outgoing partials
/// and a departing peer finds every transfer it is part of without a scan
/// of the whole table. Both indexes always hold exactly the pairs in the
/// table.
#[derive(Clone, Debug, Default)]
pub struct TransferTable {
    inner: FastMap<(PeerId, PeerId), InFlight>,
    by_uploader: FastMap<PeerId, BTreeSet<PeerId>>,
    by_downloader: FastMap<PeerId, BTreeSet<PeerId>>,
}

impl TransferTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The transfer currently in flight from `from` to `to`, if any.
    pub fn get(&self, from: PeerId, to: PeerId) -> Option<&InFlight> {
        self.inner.get(&(from, to))
    }

    /// Starts a transfer.
    ///
    /// # Panics
    ///
    /// Panics if a transfer is already in flight for the pair (callers
    /// must finish or abort it first).
    pub fn start(&mut self, from: PeerId, to: PeerId, inflight: InFlight) {
        let prev = self.inner.insert((from, to), inflight);
        assert!(
            prev.is_none(),
            "transfer already in flight from {from} to {to}"
        );
        self.by_uploader.entry(from).or_default().insert(to);
        self.by_downloader.entry(to).or_default().insert(from);
    }

    /// The downloaders this uploader currently has partials toward, in id
    /// order (deterministic).
    pub fn targets_of(&self, from: PeerId) -> Vec<PeerId> {
        self.by_uploader
            .get(&from)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All uploaders that currently have outgoing partials (unordered —
    /// callers wanting determinism must sort or treat the set as a set).
    pub fn uploaders(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.by_uploader.keys().copied()
    }

    /// Removes the pair from the table and from both indexes.
    fn remove(&mut self, from: PeerId, to: PeerId) -> Option<InFlight> {
        let fl = self.inner.remove(&(from, to))?;
        unindex(&mut self.by_uploader, from, to);
        unindex(&mut self.by_downloader, to, from);
        Some(fl)
    }

    /// Adds `bytes` of progress; returns the completed transfer when the
    /// piece finishes (and removes it from the table).
    ///
    /// # Panics
    ///
    /// Panics if no transfer is in flight for the pair or if `bytes`
    /// exceeds the remaining length.
    pub fn progress(&mut self, from: PeerId, to: PeerId, bytes: u64, round: u64) -> Option<InFlight> {
        let entry = self
            .inner
            .get_mut(&(from, to))
            .unwrap_or_else(|| panic!("no transfer in flight from {from} to {to}"));
        assert!(
            bytes <= entry.remaining(),
            "progress {bytes} exceeds remaining {}",
            entry.remaining()
        );
        entry.bytes_done += bytes;
        entry.last_progress_round = round;
        if entry.bytes_done == entry.piece_len {
            self.remove(from, to)
        } else {
            None
        }
    }

    /// Removes and returns every transfer whose last progress is older
    /// than `before` (stalled requests a real client would re-issue), in
    /// `(from, to)` order.
    pub fn drain_stalled(&mut self, before: u64) -> Vec<((PeerId, PeerId), InFlight)> {
        let mut keys: Vec<(PeerId, PeerId)> = self
            .inner
            .iter()
            .filter(|(_, fl)| fl.last_progress_round < before)
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        self.take_all(keys)
    }

    /// Drops every transfer involving `peer` (departure, outage,
    /// whitewash, seeder exit), returning the dropped entries as
    /// `((from, to), transfer)` pairs in `(from, to)` order. Costs
    /// O(the peer's transfers), not a scan of the table.
    pub fn drop_peer(&mut self, peer: PeerId) -> Vec<((PeerId, PeerId), InFlight)> {
        let outgoing = self.by_uploader.get(&peer).into_iter().flatten();
        let incoming = self.by_downloader.get(&peer).into_iter().flatten();
        let mut keys: Vec<(PeerId, PeerId)> = outgoing
            .map(|&to| (peer, to))
            .chain(incoming.map(|&from| (from, peer)))
            .collect();
        keys.sort_unstable();
        self.take_all(keys)
    }

    fn take_all(&mut self, keys: Vec<(PeerId, PeerId)>) -> Vec<((PeerId, PeerId), InFlight)> {
        keys.into_iter()
            .map(|(f, t)| ((f, t), self.remove(f, t).expect("key just listed")))
            .collect()
    }

    /// Iterates over all in-flight transfers (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&(PeerId, PeerId), &InFlight)> {
        self.inner.iter()
    }

    /// Number of in-flight transfers.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns true when nothing is in flight.
    #[allow(dead_code)] // API completeness alongside len(); exercised in tests
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// Removes `b` from `a`'s set in a one-direction index, dropping the set
/// once it is empty.
fn unindex(index: &mut FastMap<PeerId, BTreeSet<PeerId>>, a: PeerId, b: PeerId) {
    if let Some(set) = index.get_mut(&a) {
        set.remove(&b);
        if set.is_empty() {
            index.remove(&a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    fn flight(piece: u32, len: u64) -> InFlight {
        InFlight {
            piece,
            piece_len: len,
            bytes_done: 0,
            condition: None,
            reason: GrantReason::Altruism,
            last_progress_round: 0,
        }
    }

    #[test]
    fn accumulates_until_complete() {
        let mut t = TransferTable::new();
        assert!(t.is_empty());
        t.start(p(0), p(1), flight(7, 1000));
        assert!(t.progress(p(0), p(1), 400, 1).is_none());
        assert_eq!(t.get(p(0), p(1)).unwrap().bytes_done, 400);
        let done = t.progress(p(0), p(1), 600, 2).expect("complete");
        assert_eq!(done.piece, 7);
        assert!(t.get(p(0), p(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds remaining")]
    fn overshoot_panics() {
        let mut t = TransferTable::new();
        t.start(p(0), p(1), flight(0, 100));
        t.progress(p(0), p(1), 101, 0);
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn double_start_panics() {
        let mut t = TransferTable::new();
        t.start(p(0), p(1), flight(0, 100));
        t.start(p(0), p(1), flight(1, 100));
    }

    #[test]
    fn pairs_are_directional() {
        let mut t = TransferTable::new();
        t.start(p(0), p(1), flight(0, 100));
        t.start(p(1), p(0), flight(1, 100));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn targets_index_tracks_lifecycle() {
        let mut t = TransferTable::new();
        t.start(p(0), p(2), flight(0, 100));
        t.start(p(0), p(1), flight(1, 100));
        assert_eq!(t.targets_of(p(0)), vec![p(1), p(2)]);
        t.progress(p(0), p(1), 100, 0);
        assert_eq!(t.targets_of(p(0)), vec![p(2)]);
        t.drop_peer(p(2));
        assert!(t.targets_of(p(0)).is_empty());
    }

    #[test]
    fn drain_stalled_removes_old_transfers() {
        let mut t = TransferTable::new();
        t.start(p(0), p(1), flight(0, 100));
        t.start(p(2), p(3), flight(1, 100));
        t.progress(p(2), p(3), 10, 9); // fresh progress at round 9
        let stalled = t.drain_stalled(5);
        assert_eq!(stalled.len(), 1);
        assert_eq!(stalled[0].0, (p(0), p(1)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn drop_peer_removes_both_directions() {
        let mut t = TransferTable::new();
        t.start(p(0), p(1), flight(0, 100));
        t.start(p(2), p(0), flight(1, 100));
        t.start(p(2), p(3), flight(2, 100));
        let dropped = t.drop_peer(p(0));
        assert_eq!(dropped.len(), 2);
        assert_eq!(t.len(), 1);
        assert!(t.get(p(2), p(3)).is_some());
    }

    /// Every (uploader, downloader) pair one index holds, sorted.
    fn index_pairs(index: &FastMap<PeerId, BTreeSet<PeerId>>, flip: bool) -> Vec<(PeerId, PeerId)> {
        let mut v: Vec<(PeerId, PeerId)> = index
            .iter()
            .flat_map(|(&a, set)| {
                assert!(!set.is_empty(), "empty index set left behind for {a}");
                set.iter().map(move |&b| if flip { (b, a) } else { (a, b) })
            })
            .collect();
        v.sort_unstable();
        v
    }

    fn table_pairs(t: &TransferTable) -> Vec<(PeerId, PeerId)> {
        let mut v: Vec<(PeerId, PeerId)> = t.inner.keys().copied().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn drain_stalled_unindexes_both_directions() {
        let mut t = TransferTable::new();
        t.start(p(0), p(1), flight(0, 100));
        t.start(p(0), p(2), flight(1, 100));
        t.progress(p(0), p(2), 10, 9);
        let stalled = t.drain_stalled(5);
        assert_eq!(stalled.len(), 1);
        assert_eq!(stalled[0].0, (p(0), p(1)));
        assert_eq!(t.targets_of(p(0)), vec![p(2)]);
        assert!(!t.by_downloader.contains_key(&p(1)));
        // Once the uploader's last partial stalls, it stops being listed.
        let stalled = t.drain_stalled(10);
        assert_eq!(stalled.len(), 1);
        assert!(t.targets_of(p(0)).is_empty());
        assert_eq!(t.uploaders().count(), 0);
        assert!(t.by_downloader.is_empty());
    }

    #[test]
    fn drop_peer_returns_pairs_in_key_order() {
        let mut t = TransferTable::new();
        t.start(p(3), p(1), flight(0, 100));
        t.start(p(1), p(4), flight(1, 100));
        t.start(p(0), p(1), flight(2, 100));
        t.start(p(1), p(2), flight(3, 100));
        let keys: Vec<(PeerId, PeerId)> = t.drop_peer(p(1)).into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![(p(0), p(1)), (p(1), p(2)), (p(1), p(4)), (p(3), p(1))]
        );
        assert!(t.is_empty());
    }

    proptest! {
        /// Random start/progress/stall/drop sequences: after every
        /// operation both indexes hold exactly the table's pairs, and
        /// `drop_peer` removes exactly the pairs a full-table scan finds.
        #[test]
        fn indexes_always_match_the_table(
            ops in proptest::collection::vec((0u8..4, 0u32..6, 0u32..6, 1u64..120), 0..200)
        ) {
            let mut t = TransferTable::new();
            for (round, &(op, a, b, x)) in ops.iter().enumerate() {
                let round = round as u64;
                let (a, b) = (p(a), p(b));
                match op {
                    0 if a != b && t.get(a, b).is_none() => {
                        let mut fl = flight(round as u32, 100);
                        fl.last_progress_round = round;
                        t.start(a, b, fl);
                    }
                    1 if t.get(a, b).is_some() => {
                        let step = x.min(t.get(a, b).unwrap().remaining());
                        t.progress(a, b, step, round);
                    }
                    2 => {
                        let before = round.saturating_sub(x % 20);
                        let mut expect: Vec<(PeerId, PeerId)> = t
                            .iter()
                            .filter(|(_, fl)| fl.last_progress_round < before)
                            .map(|(&k, _)| k)
                            .collect();
                        expect.sort_unstable();
                        let got: Vec<(PeerId, PeerId)> =
                            t.drain_stalled(before).into_iter().map(|(k, _)| k).collect();
                        prop_assert_eq!(got, expect);
                    }
                    3 => {
                        let mut expect: Vec<(PeerId, PeerId)> = t
                            .iter()
                            .map(|(&k, _)| k)
                            .filter(|&(f, to)| f == a || to == a)
                            .collect();
                        expect.sort_unstable();
                        let got: Vec<(PeerId, PeerId)> =
                            t.drop_peer(a).into_iter().map(|(k, _)| k).collect();
                        prop_assert_eq!(got, expect);
                    }
                    _ => {}
                }
                let pairs = table_pairs(&t);
                prop_assert_eq!(index_pairs(&t.by_uploader, false), pairs.clone());
                prop_assert_eq!(index_pairs(&t.by_downloader, true), pairs);
            }
        }
    }
}
