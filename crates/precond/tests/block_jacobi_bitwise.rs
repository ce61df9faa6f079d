//! Bitwise property test of the packed, lane-batched block Jacobi apply.
//!
//! The oracle factors every block on its own with
//! `DenseMatrix::from_csr_block(..).cholesky()` and applies it with
//! `Cholesky::solve_in_place` / `Cholesky::apply_original`. The packed
//! preconditioner must reproduce it bit for bit, for block caps that fill
//! lane units, leave leftovers, and exceed the lane scratch, over empty
//! ranks, ranks smaller than one lane unit, mixed block sizes, and ranges
//! that are unions of rank ranges.

use std::ops::Range;

use esrcg_precond::{BlockJacobiPrecond, Preconditioner};
use esrcg_sparse::gen::{banded_spd, poisson1d, stencil27};
use esrcg_sparse::rng::SplitMix64;
use esrcg_sparse::{CsrMatrix, DenseMatrix, Partition};

/// The blocks of one rank range, as the paper defines them: the fewest
/// uniform blocks of at most `max_block` rows, larger ones first.
fn blocks_of(range: Range<usize>, max_block: usize) -> Vec<Range<usize>> {
    let len = range.len();
    if len == 0 {
        return Vec::new();
    }
    let nb = len.div_ceil(max_block);
    let (base, extra) = (len / nb, len % nb);
    let mut pos = range.start;
    (0..nb)
        .map(|b| {
            let bl = base + usize::from(b < extra);
            pos += bl;
            pos - bl..pos
        })
        .collect()
}

fn oracle_blocks(part: &Partition, max_block: usize) -> Vec<Range<usize>> {
    part.iter()
        .flat_map(|(_, range)| blocks_of(range, max_block))
        .collect()
}

fn factor(a: &CsrMatrix, block: &Range<usize>) -> esrcg_sparse::Cholesky {
    let idx: Vec<usize> = block.clone().collect();
    DenseMatrix::from_csr_block(a, &idx)
        .cholesky()
        .expect("SPD block")
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

/// Every union of consecutive rank ranges.
fn rank_unions(part: &Partition) -> Vec<Range<usize>> {
    let p = part.n_ranks();
    let mut out = Vec::new();
    for first in 0..p {
        for last in first..p {
            out.push(part.start(first)..part.range(last).end);
        }
    }
    out
}

fn check(a: &CsrMatrix, part: &Partition, max_block: usize, seed: u64) {
    let n = a.nrows();
    let p = BlockJacobiPrecond::new(a, part, max_block).expect("SPD matrix");
    let blocks = oracle_blocks(part, max_block);
    assert_eq!(p.n_blocks(), blocks.len());
    let r = random_vec(n, seed);

    // Oracle apply: z_b = A_b⁻¹ r_b block by block.
    let mut want = r.clone();
    let mut want_flops = vec![0u64; n];
    for b in &blocks {
        let chol = factor(a, b);
        chol.solve_in_place(&mut want[b.clone()]);
        want_flops[b.start] = chol.solve_flops();
    }

    let mut z = vec![f64::NAN; n];
    p.apply_into(&r, &mut z);
    assert_eq!(bits(&z), bits(&want), "apply_into, max_block {max_block}");

    for range in rank_unions(part) {
        let mut z_loc = vec![f64::NAN; range.len()];
        p.apply_local(range.clone(), &r[range.clone()], &mut z_loc);
        assert_eq!(
            bits(&z_loc),
            bits(&want[range.clone()]),
            "apply_local {range:?}, max_block {max_block}"
        );
        let flops: u64 = want_flops[range.clone()].iter().sum();
        assert_eq!(p.apply_flops(range.clone()), flops, "apply_flops {range:?}");

        // Oracle restricted solve: y_b = L_b (L_bᵀ v_b) block by block.
        let idx: Vec<usize> = range.clone().collect();
        let v = &r[range.clone()];
        let mut want_y = Vec::with_capacity(idx.len());
        for b in blocks.iter().filter(|b| range.contains(&b.start)) {
            let chol = factor(a, b);
            want_y.extend(chol.apply_original(&v[b.start - range.start..b.end - range.start]));
        }
        let got = p.solve_restricted(&idx, v);
        assert_eq!(
            bits(&got),
            bits(&want_y),
            "solve_restricted {range:?}, max_block {max_block}"
        );
    }
}

#[test]
fn packed_apply_matches_per_block_cholesky_bitwise() {
    let matrices = [banded_spd(397, 23, 0.6, 7), stencil27(7, 6, 9)];
    for (m, a) in matrices.iter().enumerate() {
        let n = a.nrows();
        let third = n / 3;
        let partitions = [
            // One rank: every block in long lane runs.
            Partition::balanced(n, 1),
            // Ragged ranks with mixed base and base+1 block sizes.
            Partition::balanced(n, 3),
            Partition::balanced(n, 7),
            // Empty ranks at the front, in the middle and at the end, and
            // a rank with fewer blocks than one lane unit.
            Partition::from_offsets(vec![0, 0, 19, third, third, n - 11, n, n]),
        ];
        for part in &partitions {
            for max_block in [1, 3, 10, 24] {
                check(a, part, max_block, 100 * m as u64 + max_block as u64);
            }
        }
    }
}

#[test]
fn restricted_solve_accepts_block_aligned_sets_inside_one_rank() {
    // Whole blocks need not be whole ranks for the restricted solve: here
    // blocks 2..5 of one rank, which sit inside an 8-lane unit.
    let a = banded_spd(120, 9, 0.7, 3);
    let part = Partition::balanced(120, 1);
    let p = BlockJacobiPrecond::new(&a, &part, 10).expect("SPD matrix");
    let idx: Vec<usize> = (20..50).collect();
    let v = random_vec(30, 5);
    let mut want = Vec::new();
    for b in [20..30, 30..40, 40..50] {
        want.extend(factor(&a, &b).apply_original(&v[b.start - 20..b.end - 20]));
    }
    assert_eq!(bits(&p.solve_restricted(&idx, &v)), bits(&want));
}

#[test]
#[should_panic(expected = "ranges must align with rank boundaries")]
fn apply_local_panics_on_a_range_starting_mid_block() {
    // Rank 1 is 3..10 with blocks 3..7 and 7..10; 4..10 starts inside the
    // first of them.
    let a = poisson1d(10);
    let part = Partition::from_offsets(vec![0, 3, 10]);
    let p = BlockJacobiPrecond::new(&a, &part, 4).expect("SPD matrix");
    let mut z = vec![0.0; 6];
    p.apply_local(4..10, &[1.0; 6], &mut z);
}

#[test]
#[should_panic(expected = "ranges must align with rank boundaries")]
fn apply_local_panics_on_a_range_ending_mid_block() {
    let a = poisson1d(10);
    let part = Partition::from_offsets(vec![0, 3, 10]);
    let p = BlockJacobiPrecond::new(&a, &part, 4).expect("SPD matrix");
    let mut z = vec![0.0; 5];
    p.apply_local(3..8, &[1.0; 5], &mut z);
}

#[test]
#[should_panic(expected = "ranges must align with rank boundaries")]
fn apply_flops_panics_on_a_range_starting_mid_block() {
    let a = poisson1d(10);
    let part = Partition::from_offsets(vec![0, 3, 10]);
    let p = BlockJacobiPrecond::new(&a, &part, 4).expect("SPD matrix");
    p.apply_flops(4..10);
}
