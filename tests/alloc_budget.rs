//! Heap allocations per transfer, as a ratcheted work counter.
//!
//! The allocator was 45% of a `chain_only` run before identifiers, accounts
//! and denominations became shared strings and the event schema static (see
//! PERFORMANCE.md, "The fifth profile"). This binary keeps the count that
//! change was judged by: a counting `#[global_allocator]` over `System`, one
//! small chain-only run and one small relayed run, and a ceiling per
//! transfer next to the value the parent commit measured on the same spec.
//!
//! It is an integration-test binary of its own because a global allocator
//! is per binary, and it holds the workspace's only other `unsafe` — the
//! allocator impl below. Lint rule U1 (one `unsafe` block, the SHA kernel)
//! scans `crates/*/src` and `src/`; `tests/` is outside its scope, and this
//! file is the one place allowed to use that.
//!
//! One `#[test]` only: the counter is a thread-local, so the harness's other
//! threads cannot leak in, and a single test keeps it that way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ibc_perf_repro::framework::outcome::ScenarioOutcome;
use ibc_perf_repro::framework::scenarios;
use ibc_perf_repro::framework::spec::ExperimentSpec;
use ibc_perf_repro::relayer::strategy::SequenceTracking;

thread_local! {
    /// `alloc` + `alloc_zeroed` + `realloc` calls made by this thread.
    /// `const`-initialised and without a destructor, so the allocator can
    /// touch it at any point of a thread's life without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// integer increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs, and what `f` returned.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// 50 rps × 4 blocks with no relayer: 1,000 committed transfers.
fn chain_only() -> ExperimentSpec {
    ExperimentSpec::tendermint_throughput()
        .input_rate(50)
        .measurement_blocks(4)
        .seed(42)
}

/// 40 rps × 6 blocks through one relayer at 200 ms RTT: 1,200 submitted.
fn relayed() -> ExperimentSpec {
    ExperimentSpec::relayer_throughput()
        .input_rate(40)
        .relayers(1)
        .rtt_ms(200)
        .measurement_blocks(6)
        .seed(42)
}

/// The benchmark's `lossy_clear`: a 3,600-transfer burst under a 256 KiB
/// frame limit, run until the source chain holds no commitment. Event
/// collection fails, both halves of the clear scan do the relaying, and the
/// runner asks after every source block whether anything is left.
fn drained() -> ExperimentSpec {
    ExperimentSpec::latency()
        .transfers(3_600)
        .rtt_ms(200)
        .sequence_tracking(SequenceTracking::MempoolAware)
        .frame_limit(256 * 1024)
        .packet_clearing(4)
        .seed(42)
}

/// The parent commit (PR 21) measured 89.9 allocations per committed
/// transfer on `chain_only()`; the ceiling is 45% of that, rounded down.
/// This commit measures 30.5.
const CHAIN_ONLY_CEILING: f64 = 40.0;
/// PR 21 measured 220.8 allocations per submitted transfer on `relayed()`
/// and PR 22, the parent commit, measured 96.1 — the ceiling sits just under
/// that, so it fails there. This commit, where a relayed packet has one
/// owner instead of eight copies, measures 86.7.
const RELAYED_CEILING: f64 = 95.0;
/// PR 23, the parent commit, measured 197.3 allocations per submitted
/// transfer on `drained()` (710,347 per run): the drain check and the two
/// scans formatted and looked up the path of every packet ever sent, once per
/// source block and once per scan. This commit walks the store's commitment
/// prefix instead and measures 122.9 (442,442 per run); the ceiling fails on
/// the parent.
const DRAINED_CEILING: f64 = 128.0;

/// Runs `spec` once to warm up, then twice counted; the two counts must be
/// equal. Returns allocations per `transfers(outcome)`.
fn allocations_per_transfer(
    spec: &ExperimentSpec,
    transfers: impl Fn(&ScenarioOutcome) -> u64,
) -> f64 {
    scenarios::try_run(spec).expect("setup");
    let (first, outcome) = counted(|| scenarios::try_run(spec).expect("setup"));
    let (second, _) = counted(|| scenarios::try_run(spec).expect("setup"));
    assert_eq!(
        first, second,
        "allocation count is a deterministic work counter"
    );
    let transfers = transfers(&outcome);
    assert!(transfers > 0);
    first as f64 / transfers as f64
}

#[test]
fn a_transfer_stays_within_its_allocation_budget() {
    let chain_only = allocations_per_transfer(&chain_only(), ScenarioOutcome::committed);
    println!("chain-only: {chain_only:.1} allocations per transfer committed (ceiling {CHAIN_ONLY_CEILING})");
    let relayed = allocations_per_transfer(&relayed(), ScenarioOutcome::submitted);
    println!(
        "relayed: {relayed:.1} allocations per transfer submitted (ceiling {RELAYED_CEILING})"
    );
    let drained = allocations_per_transfer(&drained(), |outcome| {
        assert!(outcome.packets_cleared() > 0, "no clear scan ran");
        assert_eq!(outcome.stranded_packets(), 0, "not drained");
        outcome.submitted()
    });
    println!(
        "drained: {drained:.1} allocations per transfer submitted (ceiling {DRAINED_CEILING})"
    );
    assert!(chain_only <= CHAIN_ONLY_CEILING, "{chain_only}");
    assert!(relayed <= RELAYED_CEILING, "{relayed}");
    assert!(drained <= DRAINED_CEILING, "{drained}");
}
