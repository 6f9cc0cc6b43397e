//! Network latency models.
//!
//! The paper evaluates two network conditions: a local-area network with
//! negligible latency (< 0.5 ms) and an emulated wide-area network with a
//! 200 ms round-trip time between any pair of machines. [`LatencyModel`]
//! reproduces both, plus a jittered variant for sensitivity studies.

use serde::{Deserialize, Serialize};

use crate::rng::DetRng;
use crate::time::SimDuration;

/// A model of one-way network delay between two hosts.
///
/// # Example
///
/// ```rust
/// use xcc_sim::LatencyModel;
///
/// // The paper's WAN setup: 200 ms round trip between any pair of machines.
/// let wan = LatencyModel::constant_rtt_ms(200);
/// assert_eq!(wan.one_way_nominal().as_millis(), 100);
///
/// let lan = LatencyModel::Zero;
/// assert!(lan.one_way_nominal().is_zero());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// No network delay (the paper's "0 ms" LAN configuration).
    #[default]
    Zero,
    /// A fixed one-way delay.
    Constant {
        /// One-way delay applied to every message.
        one_way: SimDuration,
    },
    /// A uniformly distributed one-way delay in `[min, max]`.
    Uniform {
        /// Smallest possible one-way delay.
        min: SimDuration,
        /// Largest possible one-way delay.
        max: SimDuration,
    },
}

impl LatencyModel {
    /// A constant model expressed as a round-trip time in milliseconds, as
    /// the paper configures it (`tc`-style emulation of 200 ms RTT).
    pub fn constant_rtt_ms(rtt_ms: u64) -> Self {
        if rtt_ms == 0 {
            LatencyModel::Zero
        } else {
            LatencyModel::Constant {
                one_way: SimDuration::from_millis(rtt_ms / 2),
            }
        }
    }

    /// A uniformly jittered model centred on `rtt_ms / 2` one-way with
    /// ±`jitter_ms` of jitter.
    // xcc-lint: allow(dead-knob, reason = "parked by ROADMAP 1(d): the seeded source of variance a min/max-bar issue would revive")
    pub fn jittered_rtt_ms(rtt_ms: u64, jitter_ms: u64) -> Self {
        let centre = rtt_ms / 2;
        LatencyModel::Uniform {
            min: SimDuration::from_millis(centre.saturating_sub(jitter_ms)),
            max: SimDuration::from_millis(centre + jitter_ms),
        }
    }

    /// The nominal (mean) one-way delay of the model.
    pub fn one_way_nominal(&self) -> SimDuration {
        match *self {
            LatencyModel::Zero => SimDuration::ZERO,
            LatencyModel::Constant { one_way } => one_way,
            LatencyModel::Uniform { min, max } => (min + max) / 2,
        }
    }

    /// The nominal round-trip time of the model.
    // xcc-lint: allow(dead-knob, reason = "parked by ROADMAP 1(d) with the jittered model it describes")
    pub fn rtt_nominal(&self) -> SimDuration {
        self.one_way_nominal() * 2
    }

    /// Samples a one-way delay. Deterministic given the RNG state.
    pub fn sample_one_way(&self, rng: &mut DetRng) -> SimDuration {
        match *self {
            LatencyModel::Zero => SimDuration::ZERO,
            LatencyModel::Constant { one_way } => one_way,
            LatencyModel::Uniform { min, max } => {
                if max <= min {
                    min
                } else {
                    let span = max.as_nanos() - min.as_nanos();
                    SimDuration::from_nanos(min.as_nanos() + rng.next_u64_below(span + 1))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rtt_splits_in_half() {
        let m = LatencyModel::constant_rtt_ms(200);
        assert_eq!(m.one_way_nominal(), SimDuration::from_millis(100));
        assert_eq!(m.rtt_nominal(), SimDuration::from_millis(200));
    }

    #[test]
    fn zero_rtt_is_zero_model() {
        assert_eq!(LatencyModel::constant_rtt_ms(0), LatencyModel::Zero);
        let mut rng = DetRng::new(7);
        assert!(LatencyModel::Zero.sample_one_way(&mut rng).is_zero());
    }

    #[test]
    fn uniform_samples_stay_in_bounds() {
        let m = LatencyModel::jittered_rtt_ms(200, 20);
        let mut rng = DetRng::new(42);
        for _ in 0..1000 {
            let d = m.sample_one_way(&mut rng);
            assert!(d >= SimDuration::from_millis(80));
            assert!(d <= SimDuration::from_millis(120));
        }
    }

    #[test]
    fn uniform_with_degenerate_range() {
        let m = LatencyModel::Uniform {
            min: SimDuration::from_millis(10),
            max: SimDuration::from_millis(10),
        };
        let mut rng = DetRng::new(1);
        assert_eq!(m.sample_one_way(&mut rng), SimDuration::from_millis(10));
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let m = LatencyModel::jittered_rtt_ms(200, 50);
        let mut a = DetRng::new(9);
        let mut b = DetRng::new(9);
        for _ in 0..100 {
            assert_eq!(m.sample_one_way(&mut a), m.sample_one_way(&mut b));
        }
    }
}
