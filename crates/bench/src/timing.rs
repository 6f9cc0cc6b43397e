//! The bench harness's wall-clock shim — the one place `Instant` is legal.
//!
//! The workspace's `clippy.toml` bans `Instant`/`SystemTime` everywhere
//! through `disallowed-types`; this file's two uses each carry an
//! `#[expect(clippy::disallowed_types, ..)]`. The stopwatch measures the
//! *host machine* replaying golden fixtures, producing the human-facing
//! `wall_clock_secs` numbers in `BENCH_golden.json`; it never feeds
//! simulated state, which is why the exception is sound. The exact-match
//! regression signal is the xcc-prof work counters, never these timings —
//! see docs/PERFORMANCE.md.

/// A started wall-clock measurement.
pub struct Stopwatch {
    #[expect(
        clippy::disallowed_types,
        reason = "host time for the informational wall-clock numbers; never feeds simulated state"
    )]
    started: std::time::Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            #[expect(
                clippy::disallowed_types,
                reason = "host time, see the field declaration"
            )]
            started: std::time::Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_reports_non_negative_elapsed_time() {
        let watch = Stopwatch::start();
        assert!(watch.elapsed_secs() >= 0.0);
    }
}
