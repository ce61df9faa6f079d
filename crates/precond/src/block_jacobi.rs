//! Block Jacobi preconditioner — the preconditioner the paper evaluates.
//!
//! `M = blockdiag(A_b)` with non-overlapping blocks, every block fully
//! inside one rank's index range, uniformly sized per rank, "as few of them
//! as possible, with a maximum block size of 10" (paper §5). Each block is
//! Cholesky-factored once at construction; applying `P = M⁻¹` is a pair of
//! small triangular solves per block.
//!
//! # Packed lane layout
//!
//! All factors live in one flat array. A run of 8 consecutive equal-size
//! blocks inside one rank range forms a *lane unit*; a leftover block, or
//! one larger than the lane scratch (16 rows), is a 1-lane unit. A unit
//! of `W` lanes stores only the lower triangles, interleaved across its
//! lanes: lane `ℓ`'s `L(i, k)` (`k ≤ i`) sits at
//! `off + (i(i+1)/2 + k)·W + ℓ`. An apply gathers an 8-lane unit's
//! right-hand sides into a stack array, runs forward then backward
//! substitution on all lanes at once, and scatters the results back (a
//! 1-lane unit is solved in place). The 8 substitution chains are
//! independent, so the CPU overlaps their latencies, and packing halves
//! the bytes read per block.
//!
//! The result is bitwise identical to [`Cholesky::solve_in_place`] on each
//! block: every lane runs exactly its operations in its order — the same
//! subtraction sequence and a true division by `L(i, i)` (no reciprocal),
//! and Rust never contracts a multiply and a subtract into an FMA.
//!
//! [`Cholesky::solve_in_place`]: esrcg_sparse::Cholesky::solve_in_place

use std::ops::Range;

use esrcg_sparse::{CsrMatrix, DenseMatrix, Partition, SparseError};

use crate::traits::Preconditioner;

/// Blocks batched into one lane unit.
const LANES: usize = 8;

/// Rows of the stack scratch a lane unit is gathered into; a larger block
/// is stored and solved as a 1-lane unit.
const MAX_LANE_BLOCK: usize = 16;

/// Entries of the lower triangle of an `i × i` matrix: rows `0..i` of a
/// packed factor start at `tri(i)`.
#[inline]
fn tri(i: usize) -> usize {
    i * (i + 1) / 2
}

/// `lanes` consecutive `bs × bs` blocks starting at global row `start`,
/// whose packed factors occupy `factors[off..off + tri(bs)·lanes]`.
#[derive(Debug, Clone, Copy)]
struct Unit {
    start: usize,
    bs: usize,
    lanes: usize,
    off: usize,
}

impl Unit {
    fn rows(&self) -> usize {
        self.bs * self.lanes
    }

    fn factor_len(&self) -> usize {
        tri(self.bs) * self.lanes
    }
}

/// The block Jacobi preconditioner of the paper's experiments.
#[derive(Debug, Clone)]
pub struct BlockJacobiPrecond {
    n: usize,
    /// Units sorted by `start`; they tile `0..n`.
    units: Vec<Unit>,
    /// Every unit's packed, lane-interleaved lower-triangular factors.
    factors: Vec<f64>,
    max_block: usize,
}

impl BlockJacobiPrecond {
    /// Builds the preconditioner: each rank's range is split into the
    /// fewest uniformly-sized blocks of at most `max_block` rows, and each
    /// block `A[b, b]` is Cholesky-factored.
    ///
    /// # Errors
    /// Returns [`SparseError::NotPositiveDefinite`] if any block fails to
    /// factor (cannot happen for an SPD `A`, whose principal submatrices are
    /// SPD).
    ///
    /// # Panics
    /// Panics if `max_block == 0` or the partition size differs from the
    /// matrix size.
    pub fn new(
        a: &CsrMatrix,
        partition: &Partition,
        max_block: usize,
    ) -> Result<Self, SparseError> {
        assert!(max_block > 0, "block size must be positive");
        assert_eq!(
            partition.n(),
            a.nrows(),
            "partition size must match the matrix"
        );
        let mut units = Vec::new();
        let mut factors = Vec::new();
        let mut idx = Vec::with_capacity(max_block);
        for (_, range) in partition.iter() {
            let len = range.len();
            if len == 0 {
                continue;
            }
            // Fewest uniform blocks of size <= max_block covering `len` rows:
            // nb = ceil(len / max_block), sizes differing by at most one, the
            // `extra` larger ones first.
            let nb = len.div_ceil(max_block);
            let base = len / nb;
            let extra = len % nb;
            let mut pos = range.start;
            for (bs, mut count) in [(base + 1, extra), (base, nb - extra)] {
                while count > 0 {
                    let lanes = if count >= LANES && bs <= MAX_LANE_BLOCK {
                        LANES
                    } else {
                        1
                    };
                    let unit = Unit {
                        start: pos,
                        bs,
                        lanes,
                        off: factors.len(),
                    };
                    factors.resize(unit.off + unit.factor_len(), 0.0);
                    for lane in 0..lanes {
                        let b0 = pos + lane * bs;
                        idx.clear();
                        idx.extend(b0..b0 + bs);
                        let chol = DenseMatrix::from_csr_block(a, &idx).cholesky()?;
                        let l = chol.factor();
                        for i in 0..bs {
                            for k in 0..=i {
                                factors[unit.off + (tri(i) + k) * lanes + lane] = l[i * bs + k];
                            }
                        }
                    }
                    units.push(unit);
                    pos += unit.rows();
                    count -= lanes;
                }
            }
            debug_assert_eq!(pos, range.end);
        }
        Ok(BlockJacobiPrecond {
            n: a.nrows(),
            units,
            factors,
            max_block,
        })
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.units.iter().map(|u| u.lanes).sum()
    }

    /// The configured maximum block size.
    pub fn max_block(&self) -> usize {
        self.max_block
    }

    /// The units tiling `range`. Panics unless both ends of `range` are
    /// unit boundaries — always true for a union of rank ranges, since
    /// units never cross rank boundaries.
    fn units_in(&self, range: Range<usize>) -> &[Unit] {
        let boundary = |row: usize| {
            let k = self.units.partition_point(|u| u.start < row);
            assert!(
                self.units.get(k).map_or(row == self.n, |u| u.start == row),
                "block straddles the requested range — ranges must align with rank boundaries"
            );
            k
        };
        &self.units[boundary(range.start)..boundary(range.end)]
    }

    /// `z ← M⁻¹ r` over `units`, whose rows start at `base` in `r` and `z`.
    fn apply_units(&self, units: &[Unit], base: usize, r: &[f64], z: &mut [f64]) {
        let mut x = [[0.0; LANES]; MAX_LANE_BLOCK];
        for u in units {
            let rows = u.start - base..u.start - base + u.rows();
            let l = &self.factors[u.off..u.off + u.factor_len()];
            if u.lanes == LANES {
                let x = &mut x[..u.bs];
                for (lane, rb) in r[rows.clone()].chunks_exact(u.bs).enumerate() {
                    for (xi, &ri) in x.iter_mut().zip(rb) {
                        xi[lane] = ri;
                    }
                }
                substitute(l.as_chunks::<LANES>().0, x);
                for (lane, zb) in z[rows].chunks_exact_mut(u.bs).enumerate() {
                    for (zi, xi) in zb.iter_mut().zip(x.iter()) {
                        *zi = xi[lane];
                    }
                }
            } else {
                let zb = &mut z[rows.clone()];
                zb.copy_from_slice(&r[rows]);
                substitute(l.as_chunks::<1>().0, zb.as_chunks_mut::<1>().0);
            }
        }
    }
}

/// Solves `L Lᵀ x = b` in place for `W` lanes at once: `x[i][ℓ]` holds row
/// `i` of lane `ℓ`, and `l[tri(i) + k][ℓ]` is lane `ℓ`'s `L(i, k)`. Per lane
/// this is [`esrcg_sparse::Cholesky::solve_in_place`], operation for
/// operation.
fn substitute<const W: usize>(l: &[[f64; W]], x: &mut [[f64; W]]) {
    let n = x.len();
    // Forward: L y = b.
    for i in 0..n {
        let row = &l[tri(i)..tri(i + 1)];
        let mut s = x[i];
        for (lik, xk) in row[..i].iter().zip(&x[..i]) {
            for q in 0..W {
                s[q] -= lik[q] * xk[q];
            }
        }
        for q in 0..W {
            x[i][q] = s[q] / row[i][q];
        }
    }
    // Backward: Lᵀ x = y.
    for i in (0..n).rev() {
        let mut s = x[i];
        // `at` walks column i: L(k, i) sits at tri(k) + i.
        let mut at = tri(i + 1) + i;
        for (k, xk) in x.iter().enumerate().skip(i + 1) {
            let lki = &l[at];
            for q in 0..W {
                s[q] -= lki[q] * xk[q];
            }
            at += k + 1;
        }
        let d = &l[tri(i) + i];
        for q in 0..W {
            x[i][q] = s[q] / d[q];
        }
    }
}

impl Preconditioner for BlockJacobiPrecond {
    fn n(&self) -> usize {
        self.n
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.n, "block jacobi: r length");
        assert_eq!(z.len(), self.n, "block jacobi: z length");
        self.apply_units(&self.units, 0, r, z);
    }

    fn apply_local(&self, range: Range<usize>, r_local: &[f64], z_local: &mut [f64]) {
        assert_eq!(r_local.len(), range.len(), "block jacobi: local r length");
        assert_eq!(z_local.len(), range.len(), "block jacobi: local z length");
        let base = range.start;
        self.apply_units(self.units_in(range), base, r_local, z_local);
    }

    fn apply_flops(&self, range: Range<usize>) -> u64 {
        // Σ over blocks of `Cholesky::solve_flops` = 2·n_b².
        self.units_in(range)
            .iter()
            .map(|u| 2 * (u.lanes * u.bs * u.bs) as u64)
            .sum()
    }

    fn solve_restricted(&self, idx: &[usize], v: &[f64]) -> Vec<f64> {
        assert_eq!(idx.len(), v.len(), "block jacobi: restricted lengths");
        // P_ff r_f = v with P = M⁻¹ block-diagonal ⇒ r_f = M_ff v, i.e.
        // multiply each block's original matrix (recovered from its factor
        // as L·Lᵀ, summed in `Cholesky::apply_original`'s order). idx is a
        // union of whole rank ranges, hence of whole blocks; process it
        // block by block.
        let mut out = vec![0.0; idx.len()];
        let mut t = vec![0.0; self.max_block];
        let mut k = 0usize;
        while k < idx.len() {
            let row = idx[k];
            let u = self.units[self.units.partition_point(|u| u.start <= row) - 1];
            let bn = u.bs;
            let lane = (row - u.start) / bn;
            assert!(
                (row - u.start).is_multiple_of(bn) && lane < u.lanes,
                "restricted index set must align with preconditioner blocks"
            );
            assert!(
                k + bn <= idx.len() && idx[k + bn - 1] == row + bn - 1,
                "restricted index set must contain whole blocks"
            );
            let l = |i: usize, j: usize| self.factors[u.off + (tri(i) + j) * u.lanes + lane];
            let x = &v[k..k + bn];
            // t = Lᵀ x
            for (i, ti) in t[..bn].iter_mut().enumerate() {
                let mut s = 0.0;
                for (j, xj) in x.iter().enumerate().skip(i) {
                    s += l(j, i) * xj;
                }
                *ti = s;
            }
            // y = L t
            for (i, yi) in out[k..k + bn].iter_mut().enumerate() {
                let mut s = 0.0;
                for (j, tj) in t[..=i].iter().enumerate() {
                    s += l(i, j) * tj;
                }
                *yi = s;
            }
            k += bn;
        }
        out
    }

    fn solve_restricted_flops(&self, idx_len: usize) -> u64 {
        // Same asymptotic cost as a solve over the same rows: ~2·Σ n_b².
        // Approximate with the configured block size.
        let nb = self.max_block.max(1) as u64;
        2 * nb * idx_len as u64
    }

    fn name(&self) -> &'static str {
        "block-jacobi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrcg_sparse::gen::{poisson1d, poisson2d};
    use esrcg_sparse::vector::max_abs_diff;

    #[test]
    fn block_sizes_respect_cap_and_count() {
        let a = poisson1d(25);
        let part = Partition::balanced(25, 2); // 13 + 12
        let p = BlockJacobiPrecond::new(&a, &part, 10).unwrap();
        // 13 rows -> 2 blocks (7+6); 12 rows -> 2 blocks (6+6).
        assert_eq!(p.n_blocks(), 4);
    }

    #[test]
    fn single_rank_single_block_is_exact_solve() {
        // With one block spanning the whole matrix, PCG's preconditioner is
        // A⁻¹: applying it to b must give the solution of A x = b.
        let a = poisson1d(8);
        let part = Partition::balanced(8, 1);
        let p = BlockJacobiPrecond::new(&a, &part, 8).unwrap();
        assert_eq!(p.n_blocks(), 1);
        let x_true: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let b = a.spmv(&x_true);
        let mut z = vec![0.0; 8];
        p.apply_into(&b, &mut z);
        assert!(max_abs_diff(&z, &x_true) < 1e-12);
    }

    #[test]
    fn apply_local_matches_global() {
        let a = poisson2d(4, 4);
        let part = Partition::balanced(16, 4);
        let p = BlockJacobiPrecond::new(&a, &part, 3).unwrap();
        let r: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut z_full = vec![0.0; 16];
        p.apply_into(&r, &mut z_full);
        for (_, range) in part.iter() {
            let mut z_loc = vec![0.0; range.len()];
            p.apply_local(range.clone(), &r[range.clone()], &mut z_loc);
            assert!(max_abs_diff(&z_loc, &z_full[range]) < 1e-15);
        }
    }

    #[test]
    fn solve_restricted_inverts_apply_on_rank_union() {
        let a = poisson2d(4, 4);
        let part = Partition::balanced(16, 4);
        let p = BlockJacobiPrecond::new(&a, &part, 10).unwrap();
        // idx = ranks 1 and 2 -> global 4..12.
        let idx: Vec<usize> = (4..12).collect();
        let r_f: Vec<f64> = (0..8).map(|i| 1.0 + i as f64).collect();
        // v = P_ff r_f: apply the preconditioner restricted to idx.
        let mut v = vec![0.0; 8];
        p.apply_local(4..12, &r_f, &mut v);
        let rec = p.solve_restricted(&idx, &v);
        assert!(max_abs_diff(&rec, &r_f) < 1e-12);
    }

    #[test]
    fn blocks_never_cross_rank_boundaries() {
        let a = poisson1d(10);
        let part = Partition::from_offsets(vec![0, 3, 10]);
        let p = BlockJacobiPrecond::new(&a, &part, 4).unwrap();
        // Rank 0: 3 rows -> 1 block; rank 1: 7 rows -> 2 blocks (4+3).
        assert_eq!(p.n_blocks(), 3);
        // Applying over rank 1 alone must be legal.
        let mut z = vec![0.0; 7];
        p.apply_local(3..10, &[1.0; 7], &mut z);
    }

    #[test]
    fn empty_rank_is_fine() {
        let a = poisson1d(4);
        let part = Partition::from_offsets(vec![0, 4, 4]);
        let p = BlockJacobiPrecond::new(&a, &part, 2).unwrap();
        assert_eq!(p.n_blocks(), 2);
        let mut z = vec![0.0; 0];
        p.apply_local(4..4, &[], &mut z);
    }

    #[test]
    fn name_and_flops() {
        let a = poisson1d(10);
        let part = Partition::balanced(10, 1);
        let p = BlockJacobiPrecond::new(&a, &part, 5).unwrap();
        assert_eq!(p.name(), "block-jacobi");
        assert!(p.apply_flops(0..10) > 0);
        assert!(p.solve_restricted_flops(10) > 0);
    }
}
