//! The name of the experiment's random stream, kept while nothing draws.

/// A zero-sized stand-in for the experiment's random stream.
///
/// No model draws a random number: the network is a constant round-trip
/// time and every cost is a constant, so a run is a pure function of its
/// spec and the seed changes nothing but the spec's own `seed` field. The
/// type exists only because the repository benchmark (`benchmark/src`)
/// names [`DetRng::new`], `Testnet::rng` and `make_rpc`'s stream parameter.
/// A model that needs randomness adds a real stream with its first
/// consumer.
#[derive(Debug, Clone)]
pub struct DetRng;

impl DetRng {
    /// The stand-in for a stream seeded with `seed`, which is ignored; kept
    /// for the benchmark's callers.
    pub fn new(_seed: u64) -> Self {
        DetRng
    }
}
