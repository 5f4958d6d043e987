//! Timing loops over single public functions. Inputs are drawn from the
//! workload seed at the workload's sizes; each figure is the median of
//! several batches, each batch sized to take about 20 ms.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use coop_des::rng::{splitmix64, SeedTree};
use coop_experiments::journal::{JobOutcome, JobRecord, RunHeader};
use coop_experiments::RunJournal;
use coop_incentives::mechanisms::epoch::RewardPool;
use coop_incentives::PeerId;
use coop_piece::{AvailabilityIndex, Bitfield};
use coop_swarm::{DirtySet, SimResult};

const BATCH_NS: f64 = 20e6;
const SAMPLES: usize = 7;
/// Distinct inputs each loop cycles through.
const INPUTS: usize = 64;
/// Peers in the reward pool (the paper's population).
const POOL_PEERS: u32 = 1000;

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Median nanoseconds per call of `op(i)` over [`SAMPLES`] batches.
fn ns_per_op(mut op: impl FnMut(usize)) -> f64 {
    let mut batch = 1usize;
    loop {
        let t = Instant::now();
        (0..batch).for_each(&mut op);
        let ns = t.elapsed().as_nanos() as f64;
        if ns >= BATCH_NS / 8.0 {
            batch = ((batch as f64 * BATCH_NS / ns).ceil() as usize).max(1);
            break;
        }
        batch *= 4;
    }
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            (0..batch).for_each(&mut op);
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&mut samples)
}

/// A bitfield over `pieces` with each piece set with probability
/// `percent`/100.
fn random_bitfield(pieces: u32, percent: u64, state: &mut u64) -> Bitfield {
    let mut bf = Bitfield::new(pieces);
    for i in 0..pieces {
        if splitmix64(state) % 100 < percent {
            bf.set(i);
        }
    }
    bf
}

/// `(pick_rarest_into ns, min_over ns)` on an index holding `peers`
/// random bitfields over `pieces` pieces.
pub fn availability(seed: u64, pieces: u32, peers: usize) -> (f64, f64) {
    let mut state = seed ^ 0xA7A1;
    let mut index = AvailabilityIndex::new(pieces);
    for _ in 0..peers {
        let percent = splitmix64(&mut state) % 101;
        index.add_peer(&random_bitfield(pieces, percent, &mut state));
    }
    let pairs: Vec<(Bitfield, Bitfield)> = (0..INPUTS)
        .map(|_| {
            let mine = splitmix64(&mut state) % 90;
            (
                random_bitfield(pieces, mine, &mut state),
                random_bitfield(pieces, 50, &mut state),
            )
        })
        .collect();
    let mut rng = SeedTree::new(seed).rng(0x91C4);
    let mut ties = Vec::new();
    let pick = ns_per_op(|i| {
        let (mine, theirs) = &pairs[i % INPUTS];
        black_box(index.pick_rarest_into(mine, theirs, &mut ties, &mut rng));
    });
    let min_over = ns_per_op(|i| {
        black_box(index.min_over(&pairs[i % INPUTS].1));
    });
    (pick, min_over)
}

/// Nanoseconds per id of one `DirtySet` cycle: `peers` marks (with
/// duplicates) over `0..peers`, then `drain_sorted`.
pub fn dirty_set(seed: u64, peers: usize) -> f64 {
    let mut state = seed ^ 0xD127;
    let ids: Vec<u32> = (0..peers)
        .map(|_| (splitmix64(&mut state) % peers as u64) as u32)
        .collect();
    let mut set = DirtySet::new();
    let cycle = ns_per_op(|_| {
        for &id in &ids {
            set.mark(id);
        }
        black_box(set.drain_sorted());
    });
    cycle / peers as f64
}

/// `(accrue ns, close_epoch ns)` on a reward pool of [`POOL_PEERS`].
pub fn reward_pool(seed: u64) -> (f64, f64) {
    let mut state = seed ^ 0x9E0A;
    let accruals: Vec<(PeerId, u64)> = (0..4096)
        .map(|_| {
            let peer = (splitmix64(&mut state) % u64::from(POOL_PEERS)) as u32;
            (PeerId::new(peer), 1 + splitmix64(&mut state) % 262_144)
        })
        .collect();
    let mut pool = RewardPool::new();
    for &(peer, bytes) in &accruals {
        pool.accrue(peer, bytes);
    }
    let accrue = ns_per_op(|i| {
        let (peer, bytes) = accruals[i % accruals.len()];
        pool.accrue(peer, bytes);
    });
    let close = ns_per_op(|i| {
        black_box(pool.close_epoch(1 + (accruals[i % accruals.len()].1 & 0xFFFF)));
    });
    (accrue, close)
}

/// Microseconds per `RunJournal::record_job` (one fsync'd line) of
/// `result`, into a fresh journal under `dir`.
pub fn journal_append(dir: &Path, seed: u64, result: &SimResult) -> f64 {
    let header = RunHeader {
        artifact: "perfbench".to_string(),
        scale: "paper".to_string(),
        seed,
        replicates: 1,
    };
    let journal = RunJournal::create(dir, &header).expect("scratch directory is writable");
    let record = JobRecord {
        fingerprint: seed,
        slot: 0,
        label: "perfbench".to_string(),
        seed,
        outcome: JobOutcome::Ok,
        attempts: 1,
        result: Some(result.clone()),
        error: None,
    };
    let us = ns_per_op(|_| {
        journal.record_job(&record).expect("journal append");
    }) / 1e3;
    let _ = std::fs::remove_dir_all(dir);
    us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
