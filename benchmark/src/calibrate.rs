//! Host-speed calibration for the two timed end-to-end metrics.
//!
//! The benchmark runs on a shared two-core box whose speed drifts: two
//! back-to-back result sets of the same commit disagreed by 11% on raw
//! `run_wall_s` (chain_only, medians of ten runs) and one workload's ten raw
//! run medians spread by 23%, because of slow episodes of a minute or more
//! during which everything takes 10–25% longer. No bound worth having
//! survives that, and a median of reps does not help when every rep of a run
//! sits inside the episode.
//!
//! So every timed rep is bracketed by a fixed kernel — string-keyed
//! `BTreeMap` inserts, byte hashing and `Vec` copies, the simulator's own
//! instruction mix, built from `std` only so no change to the repo can move
//! it — and the rep's seconds are scaled by how much slower than its
//! reference time the kernel ran just before and after. On a quiet host the
//! scaled value *is* the wall-clock value; in a slow episode it reads what
//! the rep would have taken on the quiet host. With scaling, pairs of sets
//! agreed within 1.1% (seed 42) and 5.8% (seed 7) on every workload and the
//! spread of ten run medians fell to 2–9%. The unscaled median is printed
//! next to every scaled one.

use std::collections::BTreeMap;
use std::hint::black_box;

use xcc_bench::timing::Stopwatch;

/// What the kernel takes on the reference host (this repo's 2.1 GHz two-core
/// sandbox) when nothing else runs. Scaled seconds are seconds at this speed.
pub const REFERENCE_SECS: f64 = 0.056;

/// FNV-style byte mixing; stands in for the simulator's hashing.
fn mix(mut hash: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3).rotate_left(23) ^ (hash >> 17);
    }
    hash
}

/// Runs the calibration kernel once and returns the host seconds it took.
pub fn kernel() -> f64 {
    let watch = Stopwatch::start();
    let mut store: BTreeMap<String, [u8; 32]> = BTreeMap::new();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for i in 0..40_000_u64 {
        let sequence = i.wrapping_mul(2_654_435_761) % 100_000;
        let key = format!("commitments/ports/transfer/channels/channel-0/sequences/{sequence}");
        hash = mix(hash, key.as_bytes());
        let mut value = [0_u8; 32];
        value[..8].copy_from_slice(&hash.to_le_bytes());
        store.insert(key, value);
    }
    let mut total = 0_u64;
    for _ in 0..3 {
        let leaves: Vec<Vec<u8>> = store
            .iter()
            .map(|(key, value)| {
                let mut leaf = key.as_bytes().to_vec();
                leaf.extend_from_slice(value);
                leaf
            })
            .collect();
        for leaf in &leaves {
            total = mix(total, leaf);
        }
    }
    black_box((store.len(), total));
    watch.elapsed_secs()
}

/// Scales measured seconds to the reference host speed, from kernel runs
/// bracketing each measurement.
pub struct HostSpeed {
    /// The kernel run that closed the previous measurement and opens the next.
    before: f64,
    kernels: Vec<f64>,
}

impl HostSpeed {
    /// Runs the kernel once, untimed, to warm it, then once to open the first
    /// measurement.
    pub fn probe() -> Self {
        kernel();
        let before = kernel();
        HostSpeed {
            before,
            kernels: vec![before],
        }
    }

    /// Closes a measurement of `secs` with a kernel run and returns `secs`
    /// at reference speed.
    pub fn scale(&mut self, secs: f64) -> f64 {
        let after = kernel();
        let around = (self.before + after) / 2.0;
        self.before = after;
        self.kernels.push(after);
        secs * REFERENCE_SECS / around
    }

    /// Every kernel run so far, in host seconds.
    pub fn kernels(&self) -> &[f64] {
        &self.kernels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_work_that_takes_time() {
        assert!(kernel() > 0.0);
        assert_eq!(mix(1, b"abc"), mix(1, b"abc"));
        assert_ne!(mix(1, b"abc"), mix(1, b"abd"));
    }

    #[test]
    fn scaling_divides_by_the_bracketing_kernel_runs() {
        let before = 2.0 * REFERENCE_SECS;
        let mut host = HostSpeed {
            before,
            kernels: vec![before],
        };
        let scaled = host.scale(10.0);
        let after = host.kernels()[1];
        assert_eq!(scaled, 10.0 * REFERENCE_SECS / ((before + after) / 2.0));
        // The closing kernel run opens the next measurement.
        assert_eq!(host.before, after);
    }
}
