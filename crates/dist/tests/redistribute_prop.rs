//! Property test: re-blocking after an arbitrary single-rank loss
//! preserves the global tensor **bit-exactly**.
//!
//! This is the invariant `dist::redistribute` documents: assembly is a
//! pure copy, so for any tensor shape, any source grid with P ∈ {2,4,8}
//! ranks, and any single victim rank, redistributing the survivors'
//! blocks plus one replica of the victim's block onto the shrunken grid
//! reproduces every global entry with `==` equality — no tolerance.

use proptest::prelude::*;
use ratucker_dist::{try_redistribute, BlockPiece, DistTensor, TensorDist};
use ratucker_mpi::{choose_shrunk_dims, CartGrid, Universe};
use ratucker_tensor::dense::DenseTensor;
use ratucker_tensor::shape::Shape;

/// Strategy: (dims, grid, victim) with 2–3 modes, dims 3–7, grid entries
/// 1–2 whose product P is in {2, 4, 8}, and a victim rank < P.
fn arb_loss_case() -> impl Strategy<Value = (Vec<usize>, Vec<usize>, usize)> {
    (2usize..=3)
        .prop_flat_map(|d| {
            (
                prop::collection::vec(3usize..=7, d..=d),
                prop::collection::vec(1usize..=2, d..=d),
                0usize..8,
            )
        })
        .prop_filter("grid fits dims, P in {2,4,8}", |(dims, grid, _)| {
            let p: usize = grid.iter().product();
            grid.iter().zip(dims).all(|(&g, &n)| g <= n) && p >= 2
        })
        .prop_map(|(dims, grid, v)| {
            let p: usize = grid.iter().product();
            (dims, grid, v % p)
        })
}

/// Deterministic global entry — both the scattered tensor and the
/// reference the survivors check against.
fn val(idx: &[usize], seed: u64) -> f64 {
    let mut v = seed as f64 * 0.013;
    for (k, &i) in idx.iter().enumerate() {
        v += ((k + 2) * (i + 3)) as f64 * 0.61;
    }
    v.sin()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_rank_loss_reblocks_bit_exactly(
        (dims, grid, victim) in arb_loss_case(),
        seed in 0u64..1000,
    ) {
        let p: usize = grid.iter().product();
        let d = dims.len();
        let (dims2, grid2) = (dims.clone(), grid.clone());
        let out = Universe::launch(p, move |c| {
            let g = CartGrid::new(c, &grid2);
            let x = DistTensor::from_fn(&g, Shape::new(&dims2), |idx| val(idx, seed));
            if g.comm.rank() == victim {
                return None; // the "dead" rank contributes nothing
            }
            // Communication-free survivor communicator, as `agree`
            // would produce it after the victim's failure.
            let survivors: Vec<usize> = (0..p).filter(|&r| r != victim).collect();
            let newcomm = g.comm.shrink(&survivors).expect("survivor is in the group");

            // The victim's ring successor holds its buddy replica; here
            // the replica block is rebuilt from the same deterministic
            // generator the victim scattered from.
            let mut pieces =
                vec![BlockPiece::from_block(x.dist(), x.coords(), x.local())];
            if g.comm.rank() == (victim + 1) % p {
                let vcoords = CartGrid::rank_to_coords(victim, &grid2);
                let vshape = x.dist().local_shape(&vcoords);
                let vranges: Vec<_> =
                    (0..d).map(|k| x.dist().range(k, vcoords[k])).collect();
                let vblock = DenseTensor::from_fn(vshape, |idx| {
                    let gidx: Vec<usize> = idx
                        .iter()
                        .zip(&vranges)
                        .map(|(&i, r)| r.offset + i)
                        .collect();
                    val(&gidx, seed)
                });
                pieces.push(BlockPiece::from_block(x.dist(), &vcoords, &vblock));
            }

            let new_dims = choose_shrunk_dims(&grid2, newcomm.size());
            let new_dist = TensorDist::new(x.global_shape().clone(), &new_dims);
            let block = try_redistribute(&newcomm, &new_dist, pieces).unwrap();
            Some(block.map(|b| {
                // Verify every received entry against the generator with
                // exact equality, and report the entry count so the
                // drivers below can check full coverage.
                let ranges: Vec<_> = (0..d)
                    .map(|k| new_dist.range(k, b.coords()[k]))
                    .collect();
                let mut exact = true;
                for idx in b.local().shape().clone().indices() {
                    let gidx: Vec<usize> = idx
                        .iter()
                        .zip(&ranges)
                        .map(|(&i, r)| r.offset + i)
                        .collect();
                    exact &= b.local().get(&idx) == val(&gidx, seed);
                }
                (exact, b.local().shape().num_entries())
            }))
        });

        let total: usize = dims.iter().product();
        let mut covered = 0usize;
        let mut actives = 0usize;
        for (rank, res) in out.into_iter().enumerate() {
            match res {
                None => prop_assert_eq!(rank, victim),
                Some(None) => {} // spare survivor
                Some(Some((exact, n))) => {
                    prop_assert!(exact, "rank {} received a perturbed entry", rank);
                    covered += n;
                    actives += 1;
                }
            }
        }
        let q: usize = choose_shrunk_dims(&grid, p - 1).iter().product();
        prop_assert_eq!(actives, q);
        prop_assert_eq!(covered, total, "shrunken grid must tile the tensor");
    }
}
