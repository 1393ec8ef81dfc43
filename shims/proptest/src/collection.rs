//! Collection strategies, mirroring `proptest::collection`.

use crate::{SizeRange, Strategy, TestRng};

/// A strategy producing `Vec`s of `element` samples with a length drawn
/// from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`vec`](fn@vec).
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.sample(rng);
        (0..n).map(|_| self.element.sample(rng)).collect()
    }
}
