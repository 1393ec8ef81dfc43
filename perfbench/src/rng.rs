//! The seeded generator behind every op sequence, and the digest the
//! checks and tests compare; both are built on the stable hashes of
//! `fbox_resilience::hash`.

use fbox_resilience::hash::{fnv1a, mix};

/// A counter-mode stream: draw `n` is `mix(seed, n)`.
#[derive(Debug, Clone)]
pub struct Rng {
    seed: u64,
    counter: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self { seed, counter: 0 }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        mix(self.seed, self.counter)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// An order-sensitive digest: each word is folded in with `mix`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Digest(u64);

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.u64(fnv1a(bytes))
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0 = mix(self.0, v);
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).scan(Rng::new(8), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
