//! Property-based tests for the piece substrate.

use coop_piece::{
    AvailabilityMap, Bitfield, FileSpec, PiecePicker, PieceSelection, RarestFirstPicker,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bitfield_strategy(len: u32) -> impl Strategy<Value = Bitfield> {
    proptest::collection::vec(any::<bool>(), len as usize).prop_map(move |bits| {
        let mut bf = Bitfield::new(len);
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                bf.set(i as u32);
            }
        }
        bf
    })
}

proptest! {
    /// count_ones + count_zeros == len for arbitrary bitfields.
    #[test]
    fn counts_partition_len(bf in bitfield_strategy(97)) {
        prop_assert_eq!(bf.count_ones() + bf.count_zeros(), bf.len());
    }

    /// wants_from(a, b) holds iff the explicit missing set is nonempty, and
    /// missing_from agrees with the iterator.
    #[test]
    fn wants_from_agrees_with_missing_set(a in bitfield_strategy(80), b in bitfield_strategy(80)) {
        let missing: Vec<u32> = a.iter_missing_from(&b).collect();
        prop_assert_eq!(a.wants_from(&b), !missing.is_empty());
        prop_assert_eq!(a.missing_from(&b) as usize, missing.len());
        for i in missing {
            prop_assert!(!a.get(i));
            prop_assert!(b.get(i));
        }
    }

    /// Union is idempotent, commutative in its effect on count, and a
    /// superset of both operands.
    #[test]
    fn union_is_superset(a in bitfield_strategy(70), b in bitfield_strategy(70)) {
        let mut u = a.clone();
        u.union_with(&b);
        for i in a.iter_ones() {
            prop_assert!(u.get(i));
        }
        for i in b.iter_ones() {
            prop_assert!(u.get(i));
        }
        prop_assert!(!u.wants_from(&a));
        prop_assert!(!u.wants_from(&b));
        let mut again = u.clone();
        again.union_with(&b);
        prop_assert_eq!(again, u);
    }

    /// The rarest-first picker always returns a piece the downloader lacks
    /// and the uploader holds, with minimal availability over that set.
    #[test]
    fn rarest_first_is_valid_and_minimal(
        down in bitfield_strategy(40),
        up in bitfield_strategy(40),
        others in proptest::collection::vec(bitfield_strategy(40), 0..5),
        seed in any::<u64>(),
    ) {
        let mut avail = AvailabilityMap::new(40);
        for o in &others {
            avail.add_peer(o);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        match RarestFirstPicker.pick(&down, &up, &avail, &mut rng) {
            PieceSelection::Piece(i) => {
                prop_assert!(!down.get(i));
                prop_assert!(up.get(i));
                let min = down
                    .iter_missing_from(&up)
                    .map(|j| avail.count(j))
                    .min()
                    .unwrap();
                prop_assert_eq!(avail.count(i), min);
            }
            PieceSelection::NothingNeeded => {
                prop_assert!(!down.wants_from(&up));
            }
        }
    }

    /// The run-compressed representation is observationally identical to
    /// the dense one under an arbitrary interleaving of mutations and
    /// queries: compress at a random point, keep mutating, and every
    /// observable (equality, hash-relevant words, counts, iterators, set
    /// algebra) still matches the dense oracle.
    #[test]
    fn compressed_bitfield_matches_dense_oracle(
        init in bitfield_strategy(150),
        ops in proptest::collection::vec((any::<bool>(), 0u32..150), 0..40),
        compress_at in 0usize..40,
        probe in bitfield_strategy(150),
    ) {
        let mut subject = init.clone();
        let mut oracle = init;
        for (k, &(set, i)) in ops.iter().enumerate() {
            if k == compress_at {
                subject.compress();
            }
            if set {
                prop_assert_eq!(subject.set(i), oracle.set(i));
            } else {
                subject.unset(i);
                oracle.unset(i);
            }
        }
        prop_assert_eq!(&subject, &oracle);
        prop_assert_eq!(subject.count_ones(), oracle.count_ones());
        prop_assert_eq!(
            subject.word_iter().collect::<Vec<_>>(),
            oracle.word_iter().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            subject.iter_ones().collect::<Vec<_>>(),
            oracle.iter_ones().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            subject.iter_zeros().collect::<Vec<_>>(),
            oracle.iter_zeros().collect::<Vec<_>>()
        );
        prop_assert_eq!(subject.wants_from(&probe), oracle.wants_from(&probe));
        prop_assert_eq!(probe.wants_from(&subject), probe.wants_from(&oracle));
        prop_assert_eq!(subject.intersects(&probe), oracle.intersects(&probe));
        prop_assert_eq!(subject.missing_from(&probe), oracle.missing_from(&probe));
        prop_assert_eq!(
            subject.iter_common(&probe).collect::<Vec<_>>(),
            oracle.iter_common(&probe).collect::<Vec<_>>()
        );
    }

    /// `intersects` agrees with a per-piece oracle for every pairing of
    /// storage representations: Dense×Dense (the slice fast path),
    /// Dense×Runs and Runs×Dense (the run-mask path), and Runs×Runs.
    /// Operands are built from a few intervals so `compress` accepts them.
    #[test]
    fn intersects_matches_per_piece_oracle_across_representations(
        a_runs in proptest::collection::vec((0u32..200, 0u32..70), 0..3),
        b_runs in proptest::collection::vec((0u32..200, 0u32..70), 0..3),
        a_extra in proptest::collection::vec(0u32..200, 0..4),
        b_extra in proptest::collection::vec(0u32..200, 0..4),
    ) {
        let build = |runs: &[(u32, u32)], extra: &[u32]| {
            let mut bf = Bitfield::new(200);
            for &(start, width) in runs {
                for i in start..(start + width).min(200) {
                    bf.set(i);
                }
            }
            for &i in extra {
                bf.set(i);
            }
            let mut compressed = bf.clone();
            compressed.compress();
            (bf, compressed)
        };
        let (a_dense, a_any) = build(&a_runs, &a_extra);
        let (b_dense, b_any) = build(&b_runs, &b_extra);
        let oracle = (0..200).any(|i| a_dense.get(i) && b_dense.get(i));
        for a in [&a_dense, &a_any] {
            for b in [&b_dense, &b_any] {
                prop_assert_eq!(a.intersects(b), oracle);
                prop_assert_eq!(b.intersects(a), oracle);
            }
        }
        // The full seeder bitfield is a single run: it meets a dense
        // operand exactly when that operand is non-empty.
        let full = Bitfield::full(200);
        prop_assert!(full.is_compressed());
        prop_assert_eq!(a_dense.intersects(&full), a_dense.count_ones() > 0);
        prop_assert_eq!(full.intersects(&a_any), a_dense.count_ones() > 0);
    }

    /// Piece lengths always sum to the file size.
    #[test]
    fn file_piece_lengths_sum(size in 1u64..10_000_000, piece in 1u64..100_000) {
        let f = FileSpec::new(size, piece);
        let total: u64 = (0..f.num_pieces()).map(|i| f.piece_len(i)).sum();
        prop_assert_eq!(total, size);
    }

    /// Adding then removing a peer leaves the availability map unchanged.
    #[test]
    fn availability_add_remove_roundtrip(
        base in proptest::collection::vec(bitfield_strategy(30), 0..4),
        extra in bitfield_strategy(30),
    ) {
        let mut m = AvailabilityMap::new(30);
        for b in &base {
            m.add_peer(b);
        }
        let snapshot = m.clone();
        m.add_peer(&extra);
        m.remove_peer(&extra);
        prop_assert_eq!(m, snapshot);
    }
}
