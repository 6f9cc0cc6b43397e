//! Deterministic random number streams.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random number generator with convenient helpers for
/// simulation use.
///
/// Each experiment run owns one `DetRng` seeded from the experiment seed;
/// sub-components derive independent streams via [`DetRng::fork`], so adding
/// randomness to one component never perturbs another.
///
/// # Example
///
/// ```rust
/// use xcc_sim::DetRng;
///
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let mut child = a.fork("relayer-0");
/// assert!(child.next_u64_below(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
    seed: u64,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// The child's seed mixes the parent seed with a hash of the label, so
    /// forks are stable across runs and independent of the parent's position
    /// in its own stream.
    pub fn fork(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        DetRng::new(self.seed ^ h.rotate_left(17))
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// A uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.inner.gen_range(0..bound)
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..20).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn forks_are_stable_and_independent() {
        let parent = DetRng::new(99);
        let mut c1 = parent.fork("chain-a");
        let mut c2 = parent.fork("chain-a");
        let mut c3 = parent.fork("chain-b");
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn bounded_sampling() {
        let mut r = DetRng::new(5);
        for _ in 0..1000 {
            assert!(r.next_u64_below(10) < 10);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        DetRng::new(0).next_u64_below(0);
    }
}
