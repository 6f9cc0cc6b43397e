//! Heap allocations per transfer, as a ratcheted work counter.
//!
//! The allocator was 45% of a `chain_only` run before identifiers, accounts
//! and denominations became shared strings and the event schema static, and
//! formatting packet-event attributes as text was still a quarter of a
//! chain-only transfer's allocations until they became values (see
//! PERFORMANCE.md, "The fifth profile" and "The seventh profile"). This
//! binary keeps the count those changes were judged by: a counting
//! `#[global_allocator]` over `System`, a small chain-only run, a small
//! relayed run and a drained burst, and a ceiling per transfer that the
//! representation before fails.
//!
//! The same allocator also counts live bytes, for a second ratchet: the
//! heap a finished run still holds per transfer. A committed block keeps its
//! events to the end of a run, and they were 31–42% of each benchmark
//! workload's heap peak while every packet event held its own attribute
//! list and data copy (PERFORMANCE.md, "Memory: each packet once"). The
//! merged telemetry is kept to the end too, and its 13-slot row per packet
//! was 30% of a finished `chain_only` run, which records one step per
//! packet (PERFORMANCE.md, "Memory: telemetry holds what it recorded"); a
//! third test holds a log of one channel to 8 bytes per recorded step. A
//! fourth ratchets the heap's highest point during a run, which is what
//! `peak_rss_mb` reads and what a transient freed before the run returns
//! moves without moving the held bytes (PERFORMANCE.md, "Memory: each
//! packet and message held once").
//!
//! It is an integration-test binary of its own because a global allocator
//! is per binary, and it holds the workspace's only other `unsafe` — the
//! allocator impl below. The root package's `Cargo.toml` denies
//! `unsafe_code` for every integration test and example, and this file
//! expects the lint, so an `unsafe` anywhere else in them fails to compile.
//!
//! The counters are thread-locals, so each test counts its own thread only
//! and the harness's other threads cannot leak in. The last test holds the
//! binary reader to refusing a hostile byte-run length before it allocates
//! for it.

#![expect(
    unsafe_code,
    reason = "a counting #[global_allocator] must implement the unsafe GlobalAlloc trait; every method forwards to System"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

use proptest::prelude::*;
use serde::{binary, Deserialize};

use ibc_perf_repro::framework::outcome::ScenarioOutcome;
use ibc_perf_repro::framework::runner::RunOutput;
use ibc_perf_repro::framework::scenarios;
use ibc_perf_repro::framework::spec::ExperimentSpec;
use ibc_perf_repro::ibc::ids::Sequence;
use ibc_perf_repro::relayer::strategy::SequenceTracking;
use ibc_perf_repro::relayer::telemetry::{TelemetryLog, TransferStep};
use ibc_perf_repro::sim::SimTime;

thread_local! {
    /// `alloc` + `alloc_zeroed` + `realloc` calls made by this thread.
    /// `const`-initialised and without a destructor, so the allocator can
    /// touch it at any point of a thread's life without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed, counting a
    /// `realloc` as the difference of its two sizes. Same construction.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE_BYTES` has been since [`peak`] last reset it. Same
    /// construction.
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn grow(bytes: usize) {
    let live = LIVE_BYTES.with(|n| {
        n.set(n.get() + bytes as i64);
        n.get()
    });
    PEAK_BYTES.with(|peak| peak.set(peak.get().max(live)));
}

fn shrink(bytes: usize) {
    LIVE_BYTES.with(|n| n.set(n.get() - bytes as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are thread-local
// integer updates, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        shrink(layout.size());
        grow(new_size);
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

/// Heap bytes this thread allocated while `f` ran and had not freed when it
/// returned — what `f`'s value holds — and the value.
fn held<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE_BYTES.with(Cell::get);
    let value = f();
    (LIVE_BYTES.with(Cell::get) - before, value)
}

/// The most heap bytes this thread held at once while `f` ran, above what
/// it held when `f` started, and `f`'s value.
fn peak<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(before));
    let value = f();
    (PEAK_BYTES.with(Cell::get) - before, value)
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

/// Allocations per committed transfer on `chain_only()`: 89.9 before
/// identifiers and the event schema were shared, 30.5 while packet events
/// still held their attribute values as formatted text, 22.5 with the
/// values, 19.5 once decoding a transaction allocated each of its shared
/// names once, not once per message, and 8.4 now that a transfer's texts
/// are shared too and a send appends its packet to its channel end's log
/// (no packet copy, no escrow address and no channel-end leaf per message),
/// 7.5 once the `send_packet` event shared the logged packet and the
/// `message` event's one attribute was its own exact allocation, 7.4 with
/// telemetry columns, 6.4 once the `message` event held the app's one
/// record of its action and a store key was written once at its exact
/// length, 4.4 once a commitment's key was its channel end's shared
/// section plus a sequence, with no text of its own for the store or the
/// journal, and 4.3 now that a packet path's value is a slot of its
/// section's row, not a B-tree entry. The ceiling fails on each of the
/// earlier ones.
const CHAIN_ONLY_CEILING: f64 = 5.0;
/// Per submitted transfer on `relayed()`: 220.8 before shared names, 96.1
/// with a relayed packet copied eight times, 86.8 with one owner, 62.1 once
/// emitting a packet event formatted nothing and reading it back parsed
/// nothing, 49.9 once a decoded batch allocated each name once and a store
/// leaf was hashed without being assembled first, 38.7 with one record per
/// channel end, 37.2 with packet events sharing their packet, 37.3 with
/// telemetry columns, 32.9 once the relayer shared the chain's packet
/// instead of copying it out of each event and the send log, and 24.4 now
/// that commitments, receipts and acknowledgements are keyed by section and
/// sequence, not by formatted paths, and 16.4 now that `CheckTx` runs on the
/// relayer's own transaction instead of a decoded copy and a Merkle proof
/// is built at its depth instead of grown by pushes, 16.2 with the
/// relayer's packet table in rows, and 16.0 with the store's packet paths
/// in rows too. The ceiling keeps 12% above the last and fails on each of
/// the earlier ones but the last two.
const RELAYED_CEILING: f64 = 18.0;
/// Per submitted transfer on `drained()`: 197.3 while the drain check and the
/// two clear scans formatted and looked up the path of every packet ever
/// sent, 122.1 once they walked the store's commitment prefix, 90.0 with
/// packet events as values, 73.1 with shared names in decoded batches, 62.0
/// with one record per channel end, 60.0 with packet events sharing their
/// packet, 55.0 with the relayer sharing it too, 36.5 with store keys that
/// are a section and a sequence, 25.2 with no transaction decoded and
/// proofs built to size, 25.1 with the relayer's packet table in rows, and
/// 24.7 with the store's packet paths in rows. Same margin; the ceiling
/// fails on each of the earlier ones but the last two.
const DRAINED_CEILING: f64 = 28.0;

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

/// Heap bytes still held per committed transfer when `chain_only()`'s
/// `try_run_raw` returns — its chains with every committed block and block
/// event, the send logs, the stores and the telemetry: 1,628 while each
/// packet event held its own attribute list and a copy of the packet's
/// data, 1,065 once it held the packet the send log holds and every listed
/// attribute list was sized exactly, 864 once the telemetry held one 8-byte
/// cell per recorded step, not a 13-slot row per packet (this run records
/// one step), 802 once a `message` event held a handle to its action, not
/// a 48-byte attribute of its own, and a store key was a `Box<str>`, 737
/// once a commitment's key was its channel end's shared section plus a
/// sequence and a store record's rank four bytes, 631 once a raw
/// transaction wrote each struct as its field values with no field names,
/// and 597 now that the store holds a packet path's value in a slot of its
/// section's row and its tree's leaf order as one `Vec`, not a B-tree entry
/// per path. The ceiling keeps 12% above the last and fails on the first
/// five.
const CHAIN_ONLY_HELD_CEILING: f64 = 670.0;
/// Per submitted transfer on `relayed()`: 4,512 before packet events shared
/// their packet, 3,311 after, 3,054 with telemetry columns, 2,943 with
/// shared `message` records and `Box<str>` store keys, 2,838 with section
/// and sequence store keys, 2,371 with struct payloads that name no field,
/// 2,342 with the store's packet paths in rows. Same margin; the telemetry
/// test below is the one the row-per-packet log fails.
const RELAYED_HELD_CEILING: f64 = 2_625.0;
/// Per submitted transfer on `drained()`: 5,839 before packet events shared
/// their packet, 4,024 after, 3,880 with telemetry columns, 3,708 with
/// shared `message` records and `Box<str>` store keys, 3,585 with section
/// and sequence store keys, 2,997 with struct payloads that name no field,
/// 2,972 with the store's packet paths in rows. Same margin.
const DRAINED_HELD_CEILING: f64 = 3_330.0;

/// Runs `spec` once to warm up, then twice through `measure` (`held` or
/// `peak`); the two must read equal byte counts. Returns the bytes per
/// `transfers(outcome)`.
fn bytes_per_transfer(
    spec: &ExperimentSpec,
    measure: fn(&dyn Fn() -> RunOutput) -> (i64, RunOutput),
    transfers: impl Fn(&ScenarioOutcome) -> u64,
) -> f64 {
    let run = || scenarios::try_run_raw(spec).expect("setup");
    run();
    let (first, output) = measure(&run);
    let (second, _) = measure(&run);
    assert_eq!(first, second, "heap bytes are a deterministic work counter");
    let transfers = transfers(&scenarios::outcome_from(spec, &output));
    assert!(transfers > 0);
    first as f64 / transfers as f64
}

/// The bytes `try_run_raw`'s output holds per `transfers(outcome)`.
fn held_bytes_per_transfer(
    spec: &ExperimentSpec,
    transfers: impl Fn(&ScenarioOutcome) -> u64,
) -> f64 {
    bytes_per_transfer(spec, |run| held(run), transfers)
}

#[test]
fn a_finished_run_holds_within_its_byte_budget() {
    let chain_only = held_bytes_per_transfer(&chain_only(), ScenarioOutcome::committed);
    println!("chain-only: {chain_only:.0} bytes held per transfer committed (ceiling {CHAIN_ONLY_HELD_CEILING})");
    let relayed = held_bytes_per_transfer(&relayed(), ScenarioOutcome::submitted);
    println!(
        "relayed: {relayed:.0} bytes held per transfer submitted (ceiling {RELAYED_HELD_CEILING})"
    );
    let drained = held_bytes_per_transfer(&drained(), ScenarioOutcome::submitted);
    println!(
        "drained: {drained:.0} bytes held per transfer submitted (ceiling {DRAINED_HELD_CEILING})"
    );
    assert!(chain_only <= CHAIN_ONLY_HELD_CEILING, "{chain_only}");
    assert!(relayed <= RELAYED_HELD_CEILING, "{relayed}");
    assert!(drained <= DRAINED_HELD_CEILING, "{drained}");
}

/// Heap bytes per committed transfer at the highest point of
/// `chain_only()`: 915 while each `message` event held its own attribute
/// and store keys were `String`s, 853 while they were `Box<str>`s, 789 once
/// they were a section and a sequence, 683 once a raw transaction named no
/// struct field, 649 now that the store's packet paths are rows. The
/// ceiling keeps 12% above the last.
const CHAIN_ONLY_PEAK_CEILING: f64 = 730.0;
/// Per submitted transfer on `relayed()`: 3,483 while the relayer copied
/// each packet out of its event or the send log and each `message` event
/// held its own attribute, 3,278 with `Box<str>` store keys, 3,174 with
/// section and sequence keys, 2,683 with struct payloads that name no field,
/// 2,560 with the relayer's packet table in rows, 2,533 with the store's
/// packet paths in rows. Same margin.
const RELAYED_PEAK_CEILING: f64 = 2_840.0;
/// Per submitted transfer on `drained()`: 5,051 before the relayer shared
/// the chain's packets, 4,730 with `Box<str>` store keys, 4,542 with
/// section and sequence keys, 3,954 with struct payloads that name no field,
/// 3,834 with the relayer's packet table in rows, 3,736 with the store's
/// packet paths in rows. Same margin.
const DRAINED_PEAK_CEILING: f64 = 4_185.0;

/// Heap bytes per transfer at the highest point of a run, above what was
/// held when it started: what `peak_rss_mb` reads, and what the held-bytes
/// check cannot see — transients freed before the run returns.
#[test]
fn a_run_peaks_within_its_byte_budget() {
    let per_transfer = |spec: &ExperimentSpec, transfers: fn(&ScenarioOutcome) -> u64| {
        bytes_per_transfer(spec, |run| peak(run), transfers)
    };
    let chain_only = per_transfer(&chain_only(), ScenarioOutcome::committed);
    println!("chain-only: {chain_only:.0} peak bytes per transfer committed (ceiling {CHAIN_ONLY_PEAK_CEILING})");
    let relayed = per_transfer(&relayed(), ScenarioOutcome::submitted);
    println!(
        "relayed: {relayed:.0} peak bytes per transfer submitted (ceiling {RELAYED_PEAK_CEILING})"
    );
    let drained = per_transfer(&drained(), ScenarioOutcome::submitted);
    println!(
        "drained: {drained:.0} peak bytes per transfer submitted (ceiling {DRAINED_PEAK_CEILING})"
    );
    assert!(chain_only <= CHAIN_ONLY_PEAK_CEILING, "{chain_only}");
    assert!(relayed <= RELAYED_PEAK_CEILING, "{relayed}");
    assert!(drained <= DRAINED_PEAK_CEILING, "{drained}");
}

/// Packets in the telemetry-only check.
const LOGGED_PACKETS: u64 = 1_000;
/// Heap bytes a `TelemetryLog` may hold per packet and recorded step: one
/// 8-byte cell, and room for a column's unused growth and the channel's map
/// node. The row-per-packet log held 213 bytes per packet however many steps
/// it recorded, so it fails both the one-step and the 13-step ceiling.
const TELEMETRY_STEP_CEILING: f64 = 16.0;

/// Heap bytes a log of `LOGGED_PACKETS` packets on one channel holds per
/// packet when each records `steps`.
fn telemetry_bytes_per_packet(steps: &[TransferStep]) -> f64 {
    let (bytes, log) = held(|| {
        let mut log = TelemetryLog::new();
        for sequence in 1..=LOGGED_PACKETS {
            for &step in steps {
                log.record_on(
                    0,
                    Sequence::from(sequence),
                    step,
                    SimTime::from_nanos(sequence),
                );
            }
        }
        log
    });
    assert_eq!(log.packets().len() as u64, LOGGED_PACKETS);
    bytes as f64 / LOGGED_PACKETS as f64
}

#[test]
fn telemetry_holds_only_the_steps_it_recorded() {
    let one = telemetry_bytes_per_packet(&[TransferStep::TransferBroadcast]);
    let all = telemetry_bytes_per_packet(&TransferStep::ALL);
    let all_ceiling = TELEMETRY_STEP_CEILING * TransferStep::ALL.len() as f64;
    println!("telemetry, 1 of 13 steps: {one:.1} bytes held per transfer logged (ceiling {TELEMETRY_STEP_CEILING})");
    println!("telemetry, 13 of 13 steps: {all:.1} bytes held per transfer logged (ceiling {all_ceiling})");
    assert!(one <= TELEMETRY_STEP_CEILING, "{one}");
    assert!(all <= all_ceiling, "{all}");
}

/// Run lengths around a hash's 32 bytes, around the 1,024 bytes a `Vec`
/// reserves from a length read off the wire, and past both.
const RUN_LENGTHS: [usize; 9] = [0, 1, 31, 32, 33, 1_023, 1_024, 1_025, 3_000];

/// The typed reader's verdict on `bytes`, checked equal to the tree path's,
/// `T::from_value(&binary::from_bytes(bytes)?)`.
fn same_verdict<T: Deserialize + PartialEq + Debug>(bytes: &[u8]) -> Option<T> {
    let typed = binary::read::<T>(bytes).ok();
    let by_value = binary::from_bytes(bytes).and_then(|v| T::from_value(&v));
    assert_eq!(typed, by_value.ok(), "on a run of {} bytes", bytes.len());
    typed
}

fn varint(mut n: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while n >= 0x80 {
        out.push((n as u8) | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
    out
}

/// Whether `Vec<u8>`, `[u8; 32]` and the tree path each refuse `bytes`, and
/// the allocations the three reads made.
fn refusals(bytes: &[u8]) -> (u64, [bool; 3]) {
    counted(|| {
        [
            binary::read::<Vec<u8>>(bytes).is_err(),
            binary::read::<[u8; 32]>(bytes).is_err(),
            binary::from_bytes(bytes).is_err(),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A byte run reads back whole through `Vec<u8>`, through `[u8; 32]`
    /// only when it is 32 bytes long, and a cut anywhere in it is refused by
    /// both paths. A length header past the input (`u64::MAX`, or one more
    /// than the bytes that follow) is refused with no more allocations than
    /// a run cut before its length makes: the error messages, nothing sized
    /// by the header.
    #[test]
    fn hostile_byte_runs_are_refused_alike_and_before_allocating(
        pick in any::<prop::sample::Index>(),
        seed in any::<u8>(),
    ) {
        let len = RUN_LENGTHS[pick.index(RUN_LENGTHS.len())];
        let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
        let run = binary::write(&data);
        prop_assert_eq!(same_verdict::<Vec<u8>>(&run), Some(data.clone()));
        prop_assert_eq!(same_verdict::<Vec<u64>>(&run).map(|v| v.len()), Some(len));
        prop_assert_eq!(same_verdict::<[u8; 32]>(&run).is_some(), len == 32);
        for cut in 0..run.len() {
            prop_assert_eq!(same_verdict::<Vec<u8>>(&run[..cut]), None);
            prop_assert_eq!(same_verdict::<[u8; 32]>(&run[..cut]), None);
        }

        let tag = run[0];
        let (baseline, refused) = refusals(&[tag]);
        prop_assert_eq!(refused, [true; 3]);
        let body = &run[1 + varint(len as u64).len()..];
        for claimed in [u64::MAX, len as u64 + 1] {
            let hostile = [&[tag][..], &varint(claimed), body].concat();
            prop_assert_eq!(refusals(&hostile), (baseline, [true; 3]));
        }
    }
}
