//! The summation kernel behind both full scans: [`naive_top_k`]'s
//! per-entity sums (Problem 1) and [`compare_sets`]'s per-breakdown sums
//! (Problem 2).
//!
//! Every output slot sums the present cells at `slot + outer + inner`
//! offsets, over `(outer id, inner id)` in lexicographic order: exactly
//! the order a per-slot double loop adds them in. The kernel only changes
//! which slots run at the same time:
//!
//! - if the slots are consecutive cells (stride 1, ids ascending by one),
//!   the slots are the innermost loop: one contiguous row of slots per
//!   `(outer, inner)` pair, a loop the compiler vectorises;
//! - otherwise `LANES` (4) slots advance together, each with its own
//!   accumulator, so that every add no longer waits for the one before.
//!
//! When the inner axis has a single id, `(outer, inner)` order is outer
//! order alone, so the two axes trade places and the longer one runs
//! innermost. There is no knob: the geometry alone picks the loop nest.
//!
//! A missing cell (NaN) adds `+0.0` and is not counted. That keeps each
//! slot's bits: a sum starts at `+0.0` and every value is `≥ 0` or
//! `-0.0`, so a sum is never `-0.0`, and `s + 0.0` is `s` bit for bit for
//! every other `s`.
//!
//! [`naive_top_k`]: super::naive_top_k
//! [`compare_sets`]: super::compare_sets

use crate::cube::UnfairnessCube;
use crate::index::Dimension;

/// Slots summed side by side when they are not consecutive cells.
const LANES: usize = 4;

/// One axis of a scan: its ids and the cube offset stride of one id step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Axis<'a> {
    ids: &'a [u32],
    stride: usize,
}

impl<'a> Axis<'a> {
    /// `ids` of `dim`, stepping by `dim`'s offset stride in `cube`'s
    /// `(g, q, l)` row-major layout.
    pub(crate) fn new(cube: &UnfairnessCube, dim: Dimension, ids: &'a [u32]) -> Self {
        let stride = match dim {
            Dimension::Group => cube.n_queries() * cube.n_locations(),
            Dimension::Query => cube.n_locations(),
            Dimension::Location => 1,
        };
        Self { ids, stride }
    }

    fn offsets(self) -> Vec<usize> {
        self.ids.iter().map(|&id| id as usize * self.stride).collect()
    }

    /// Whether the ids name consecutive cells in ascending order.
    fn is_contiguous(self) -> bool {
        self.stride == 1 && self.ids.windows(2).all(|w| w[0].checked_add(1) == Some(w[1]))
    }
}

/// Per slot of `slots`, in slot order: the sum of the present cells of
/// `values` at `slot + outer + inner` over `(outer, inner)` in order, and
/// how many cells were present.
///
/// # Panics
///
/// Panics if an offset falls outside `values`; callers validate ids
/// against the cube's dimensions first.
pub(crate) fn slot_sums(
    values: &[f64],
    slots: Axis<'_>,
    outer: Axis<'_>,
    inner: Axis<'_>,
) -> Vec<(f64, usize)> {
    let (mut outer, mut inner) = (outer.offsets(), inner.offsets());
    if inner.len() == 1 {
        std::mem::swap(&mut outer, &mut inner);
    }
    if slots.is_contiguous() {
        return row_sums(values, slots.ids, &outer, &inner);
    }
    let bases = slots.offsets();
    let mut out = Vec::with_capacity(bases.len());
    let (outer, inner) = (&outer[..], &inner[..]);
    for block in bases.chunks(LANES) {
        match *block {
            [s0, s1, s2, s3] => out.extend(block_sums(values, [s0, s1, s2, s3], outer, inner)),
            [s0, s1, s2] => out.extend(block_sums(values, [s0, s1, s2], outer, inner)),
            [s0, s1] => out.extend(block_sums(values, [s0, s1], outer, inner)),
            _ => out.extend(block_sums(values, [block[0]], outer, inner)),
        }
    }
    out
}

/// [`slot_sums`] over consecutive slots: each `(outer, inner)` pair adds
/// one contiguous row of cells into the slots' accumulators.
fn row_sums(values: &[f64], slots: &[u32], outer: &[usize], inner: &[usize]) -> Vec<(f64, usize)> {
    let Some(&first) = slots.first() else { return Vec::new() };
    let mut sums = vec![0.0; slots.len()];
    let mut counts = vec![0usize; slots.len()];
    for &a in outer {
        for &b in inner {
            let row = &values[first as usize + a + b..][..slots.len()];
            for ((sum, count), &v) in sums.iter_mut().zip(&mut counts).zip(row) {
                let (v, present) = cell(v);
                *sum += v;
                *count += present;
            }
        }
    }
    sums.into_iter().zip(counts).collect()
}

/// [`slot_sums`] for `W` slots at once, one accumulator chain each. Per
/// outer id, each slot's cells lie in one row of `span` cells, sliced
/// once so that the inner loop checks bounds against `span` only.
///
/// Kept out of line: inlined into [`slot_sums`], the `W` sums were
/// spilled to the stack, which put a store and a load on every chain.
#[inline(never)]
fn block_sums<const W: usize>(
    values: &[f64],
    bases: [usize; W],
    outer: &[usize],
    inner: &[usize],
) -> [(f64, usize); W] {
    let span = inner.iter().max().map_or(0, |&b| b + 1);
    let mut sums = [0.0; W];
    let mut counts = [0usize; W];
    for &a in outer {
        let rows: [&[f64]; W] = std::array::from_fn(|j| &values[bases[j] + a..][..span]);
        for &b in inner {
            for j in 0..W {
                let (v, present) = cell(rows[j][b]);
                sums[j] += v;
                counts[j] += present;
            }
        }
    }
    std::array::from_fn(|j| (sums[j], counts[j]))
}

/// A stored cell as a summand and a count: a value is itself and counts
/// one; a missing cell (NaN) is `+0.0` and counts none. `max` rather
/// than a branch keeps the loops free of jumps, and it may turn a stored
/// `-0.0` into `+0.0`, which adds the same bits to a sum that is never
/// `-0.0`.
fn cell(v: f64) -> (f64, usize) {
    (v.max(0.0), usize::from(!v.is_nan()))
}

/// Seeded random inputs for the scan oracle tests.
#[cfg(test)]
pub(crate) mod testing {
    use crate::cube::UnfairnessCube;
    use crate::model::{GroupId, LocationId, QueryId};

    /// A splitmix64 stream.
    pub(crate) struct Draws(u64);

    impl Draws {
        pub(crate) fn new(seed: u64) -> Self {
            Self(seed)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// A subset of `0..total`: a run of consecutive ids, or up to
        /// `total + 2` ids drawn with repeats.
        pub(crate) fn ids(&mut self, total: usize) -> Vec<u32> {
            if self.below(2) == 0 {
                let lo = self.below(total);
                let hi = lo + 1 + self.below(total - lo);
                (lo as u32..hi as u32).collect()
            } else {
                (0..1 + self.below(total + 2)).map(|_| self.below(total) as u32).collect()
            }
        }

        /// A cube of 1 to 9 entities per dimension. A cell is missing,
        /// `0.0`, `-0.0`, `1.0` or uniform in `[0, 1)`, and one entity
        /// of a dimension may have no cell at all.
        pub(crate) fn holed_cube(&mut self) -> UnfairnessCube {
            let (ng, nq, nl) = (1 + self.below(9), 1 + self.below(9), 1 + self.below(9));
            let blank = [self.below(2 * ng), self.below(2 * nq), self.below(2 * nl)];
            let mut cube = UnfairnessCube::with_dims(ng, nq, nl);
            for g in 0..ng {
                for q in 0..nq {
                    for l in 0..nl {
                        let value = match self.below(8) {
                            _ if [g, q, l].iter().zip(&blank).any(|(i, b)| i == b) => None,
                            0 | 1 => None,
                            2 => Some(0.0),
                            3 => Some(-0.0),
                            4 => Some(1.0),
                            _ => Some(self.below(1 << 53) as f64 / (1u64 << 53) as f64),
                        };
                        let (g, q, l) =
                            (GroupId(g as u32), QueryId(q as u32), LocationId(l as u32));
                        cube.set_opt(g, q, l, value);
                    }
                }
            }
            cube
        }
    }
}
