//! Diskless buddy replication of local tensor blocks.
//!
//! Checkpoint-free fault tolerance in the style of diskless
//! checkpointing: at every sweep boundary each grid rank pushes a copy
//! of its local tensor block to its `k` ring successors on the grid
//! communicator (`k` = the replication degree), so when rank `r` dies,
//! ranks `r+1 … r+k (mod P)` each hold a warm replica of its block and
//! the survivors can rebuild the global tensor **in memory** — no disk
//! restart (see [`crate::redistribute::try_redistribute`]).
//!
//! Only the local block needs replication: factor matrices are already
//! replicated on every rank (TuckerMPI's convention, which this code
//! follows), and the sweep-local RNG state is re-derived from
//! `(seed, sweep)` — so the block is the one piece of rank-private
//! state a failure can destroy.
//!
//! Degree-`k` replication survives any failure pattern in which no run
//! of `k+1` ring-consecutive ranks dies between two refreshes; the
//! memory cost is `k` extra blocks per rank. `k = 1` (the default)
//! covers the single-failure model of the paper's scale analysis.

use crate::dtensor::DistTensor;
use crate::ops::budget_error;
use crate::redistribute::BlockPiece;
use ratucker_mem::{self as mem, MemPhase};
use ratucker_mpi::{CartGrid, CommError};
use ratucker_tensor::dense::DenseTensor;
use ratucker_tensor::scalar::Scalar;

/// A replica of another rank's local block.
#[derive(Clone, Debug)]
pub struct Replica<T: Scalar> {
    /// Grid-communicator rank of the block's owner.
    owner: usize,
    /// The owner's grid coordinates.
    coords: Vec<usize>,
    /// Copy of the owner's local block.
    block: DenseTensor<T>,
}

impl<T: Scalar> Replica<T> {
    /// The grid rank whose block this replicates.
    pub fn owner(&self) -> usize {
        self.owner
    }

    /// The owner's grid coordinates.
    pub fn coords(&self) -> &[usize] {
        &self.coords
    }

    /// The replicated block.
    pub fn block(&self) -> &DenseTensor<T> {
        &self.block
    }

    /// Converts the replica into a redistribution piece (the dead
    /// owner's block, re-injected by its buddy).
    pub fn to_piece(&self, x: &DistTensor<T>) -> BlockPiece<T> {
        BlockPiece::from_block(x.dist(), &self.coords, &self.block)
    }
}

/// The replicas one rank holds: blocks of its `degree` ring
/// predecessors on the grid communicator, refreshed at sweep
/// boundaries by [`try_refresh_buddies`].
#[derive(Clone, Debug)]
pub struct BuddyStore<T: Scalar> {
    degree: usize,
    replicas: Vec<Replica<T>>,
}

impl<T: Scalar> BuddyStore<T> {
    /// An empty store (replication disabled).
    pub fn disabled() -> Self {
        BuddyStore {
            degree: 0,
            replicas: Vec::new(),
        }
    }

    /// The effective replication degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The replica of grid rank `owner`'s block, if this rank holds it.
    pub fn replica_for(&self, owner: usize) -> Option<&Replica<T>> {
        self.replicas.iter().find(|r| r.owner == owner)
    }

    /// All held replicas.
    pub fn replicas(&self) -> &[Replica<T>] {
        &self.replicas
    }
}

/// The grid rank designated to restore dead rank `dead`'s block: the
/// first of its `degree` ring successors (the replica holders) that is
/// still alive according to `alive`. `None` means the rank *and* all
/// its buddies died — online recovery is impossible and the caller
/// must fall back to a disk checkpoint.
pub fn restorer_for(
    dead: usize,
    p: usize,
    degree: usize,
    alive: impl Fn(usize) -> bool,
) -> Option<usize> {
    (1..=degree.min(p.saturating_sub(1)))
        .map(|j| (dead + j) % p)
        .find(|&holder| alive(holder))
}

/// Refreshes buddy replicas at a sweep boundary: each rank sends its
/// local block to its `degree` ring successors on the grid communicator
/// and stores the blocks of its `degree` ring predecessors. Collective
/// over the grid. The degree is clamped to `P - 1` (a rank cannot buddy
/// itself).
pub fn try_refresh_buddies<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    degree: usize,
) -> Result<BuddyStore<T>, CommError> {
    let p = grid.comm.size();
    let k = degree.min(p.saturating_sub(1));
    if k == 0 {
        return Ok(BuddyStore::disabled());
    }
    let me = grid.comm.rank();
    let _mem = mem::with_phase(MemPhase::Replica);
    // The sends stage k copies of the local block in flight until the
    // successors drain them — real memory, so a budgeted rank refuses
    // typed here rather than silently growing by k extra blocks. The
    // received predecessor blocks carry their own per-buffer charges.
    let _stage = mem::Charge::try_new(mem::bytes_of::<T>(k * x.local().data().len()))
        .map_err(|e| budget_error(&grid.comm, e))?;
    // Queues are unbounded: post all sends, then receive.
    for j in 1..=k {
        let dst = (me + j) % p;
        grid.comm.send(dst, x.local().data().to_vec())?;
    }
    let mut replicas = Vec::with_capacity(k);
    for j in 1..=k {
        let src = (me + p - j) % p;
        let data = grid.comm.recv::<T>(src)?;
        let coords = CartGrid::rank_to_coords(src, grid.dims());
        let shape = x.dist().local_shape(&coords);
        mem::ensure_headroom(mem::bytes_of::<T>(shape.num_entries()))
            .map_err(|e| budget_error(&grid.comm, e))?;
        if data.len() != shape.num_entries() {
            // A dropped message desynchronized the channel: typed,
            // failure-class, so the recovery retry (whose agreement
            // bumps the epoch and quarantines the stale traffic) can
            // re-run the refresh cleanly.
            return Err(CommError::SizeMismatch {
                src: grid.comm.world_rank_of(src),
                dst: grid.comm.world_rank_of(me),
                expected: shape.num_entries(),
                got: data.len(),
            });
        }
        replicas.push(Replica {
            owner: src,
            coords,
            block: DenseTensor::from_vec(shape, data),
        });
    }
    Ok(BuddyStore {
        degree: k,
        replicas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratucker_mpi::Universe;
    use ratucker_tensor::shape::Shape;

    fn val(idx: &[usize]) -> f64 {
        (idx[0] * 31 + idx[1] * 7 + 1) as f64
    }

    #[test]
    fn buddies_hold_exact_predecessor_blocks() {
        for degree in [1usize, 2, 3] {
            let results = Universe::launch(4, move |c| {
                let grid = CartGrid::new(c, &[2, 2]);
                let x = DistTensor::from_fn(&grid, Shape::new(&[5, 4]), val);
                let store = try_refresh_buddies(&grid, &x, degree).unwrap();
                let me = grid.comm.rank();
                let mut ok = store.degree() == degree.min(3);
                for j in 1..=store.degree() {
                    let owner = (me + 4 - j) % 4;
                    let rep = store.replica_for(owner).expect("replica present");
                    // Rebuild the owner's block independently and compare.
                    let coords = CartGrid::rank_to_coords(owner, grid.dims());
                    let ranges: Vec<_> = (0..2).map(|k| x.dist().range(k, coords[k])).collect();
                    for idx in rep.block().shape().clone().indices() {
                        let g = [ranges[0].offset + idx[0], ranges[1].offset + idx[1]];
                        ok &= rep.block().get(&idx) == val(&g);
                    }
                }
                ok
            });
            assert!(results.into_iter().all(|ok| ok), "degree {degree}");
        }
    }

    #[test]
    fn restorer_skips_dead_buddies() {
        // Rank 2 dead, degree 2, p = 8: first live successor restores.
        assert_eq!(restorer_for(2, 8, 2, |r| r != 2), Some(3));
        assert_eq!(restorer_for(2, 8, 2, |r| r != 2 && r != 3), Some(4));
        // Rank and every buddy dead → no online restore.
        assert_eq!(restorer_for(2, 8, 1, |r| r != 2 && r != 3), None);
        // Ring wraps.
        assert_eq!(restorer_for(7, 8, 1, |r| r != 7), Some(0));
    }

    #[test]
    fn degree_zero_disables_replication() {
        let results = Universe::launch(2, |c| {
            let grid = CartGrid::new(c, &[2, 1]);
            let x = DistTensor::from_fn(&grid, Shape::new(&[4, 3]), val);
            let store = try_refresh_buddies(&grid, &x, 0).unwrap();
            store.degree() == 0 && store.replicas().is_empty()
        });
        assert!(results.into_iter().all(|ok| ok));
    }
}
