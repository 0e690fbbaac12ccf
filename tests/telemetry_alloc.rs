//! Regression test: the telemetry producer path must not allocate.
//!
//! This file is its own test binary so it can install a counting global
//! allocator without affecting the rest of the suite. With a `NullSink`
//! installed, the steady-state access path (hits, misses, demotions,
//! evictions, periodic samples) must perform zero heap allocations — the
//! zero-cost claim behind shipping telemetry enabled-but-null. The same
//! holds for Vantage's batched entry point on either of its paths. The
//! same allocator also pins the zcache's per-frame footprint and the tag
//! store's per-partition count rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vantage_repro::cache::{
    LineAddr, RripConfig, RripMode, SetAssocArray, TagMeta, ZArray, WAY_LANES,
};
use vantage_repro::core::{VantageConfig, VantageLlc};
use vantage_repro::partitioning::{
    AccessRequest, BaselineLlc, Llc, PartitionId, PippConfig, PippLlc, RankPolicy, WayPartLlc,
};
use vantage_repro::telemetry::{NullSink, Telemetry};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread: the tests in this binary run
    /// concurrently, so each counts only its own.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has asked for: every allocation's size plus every
    /// reallocation's growth (frees are not subtracted).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Deterministic xorshift so the measurement loop itself cannot allocate.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `n` accesses spread over four partitions' 1024-line working sets.
fn drive(llc: &mut dyn Llc, state: &mut u64, n: u64) {
    for _ in 0..n {
        let r = xorshift(state);
        let p = (r % 4) as usize;
        let base = ((p as u64) + 1) << 40;
        llc.access(AccessRequest::read(
            PartitionId::from_index(p),
            LineAddr(base + (r >> 8) % 1024),
        ));
    }
}

#[test]
fn nullsink_miss_path_is_allocation_free() {
    let mut vantage = VantageLlc::try_new(
        Box::new(ZArray::new(2048, 4, 52, 11)),
        4,
        VantageConfig::default(),
        11,
    )
    .expect("valid Vantage config");
    vantage.set_targets(&[512; 4]);
    // Every cache holds 2048 lines against the 4096-line stream (2x
    // capacity pressure), so misses, evictions and relocations stay busy.
    let sa16 = Box::new(SetAssocArray::hashed(2048, 16, 11));
    let drrip = RankPolicy::Rrip(RripConfig::paper(RripMode::Drrip, 4, 11));
    let caches: [(&str, Box<dyn Llc>); 5] = [
        ("Vantage Z4/52", Box::new(vantage)),
        (
            "Baseline-LRU Z4/52",
            Box::new(
                BaselineLlc::try_new(Box::new(ZArray::new(2048, 4, 52, 11)), 4, RankPolicy::Lru)
                    .expect("valid baseline geometry"),
            ),
        ),
        (
            "Baseline-DRRIP SA16",
            Box::new(BaselineLlc::try_new(sa16, 4, drrip).expect("valid baseline geometry")),
        ),
        (
            "WayPart SA16",
            Box::new(WayPartLlc::try_new(2048, 16, 4, 11).expect("valid way-partition geometry")),
        ),
        (
            "PIPP SA16",
            Box::new(
                PippLlc::try_new(2048, 16, 4, PippConfig::default(), 11)
                    .expect("valid PIPP geometry"),
            ),
        ),
    ];
    for (name, mut llc) in caches {
        assert!(llc.set_telemetry(Telemetry::new(Box::new(NullSink), 0)));
        // Warm to steady state (hits, demotions and evictions all active)
        // before counting.
        let mut state = 0x9E3779B97F4A7C15u64;
        drive(llc.as_mut(), &mut state, 200_000);
        llc.take_stats();
        let before = allocations();
        drive(llc.as_mut(), &mut state, 100_000);
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{name}: steady-state access path allocated {} times with a NullSink",
            after - before
        );
        let misses = llc.stats().total_misses();
        assert!(misses > 0, "{name}: the measured interval never missed");
    }
}

/// `VantageLlc::access_batch` allocates nothing beyond the outcome vector
/// the caller already sized, on a 32K-frame Z4/52 cache (the benchmark's
/// single caches) and a 64K-frame one (its banked machine's banks).
#[test]
fn vantage_access_batch_is_allocation_free_at_both_sizes() {
    const CHUNK: usize = 4096;
    for frames in [32 * 1024, 64 * 1024] {
        let mut llc = VantageLlc::try_new(
            Box::new(ZArray::new(frames, 4, 52, 11)),
            4,
            VantageConfig::default(),
            11,
        )
        .expect("valid Vantage config");
        // Working sets of twice the capacity, so the measured batches mix
        // hits, walks, demotions and evictions.
        let ws = (frames / 2) as u64;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut reqs = Vec::with_capacity(CHUNK);
        let mut out = Vec::with_capacity(CHUNK);
        let mut batch = |llc: &mut VantageLlc| {
            reqs.clear();
            out.clear();
            for _ in 0..CHUNK {
                let r = xorshift(&mut state);
                let p = (r % 4) as usize;
                reqs.push(AccessRequest::read(
                    PartitionId::from_index(p),
                    LineAddr((((p as u64) + 1) << 40) + (r >> 8) % ws),
                ));
            }
            let before = allocations();
            llc.access_batch(&reqs, &mut out);
            allocations() - before
        };
        for _ in 0..(4 * frames / CHUNK) {
            batch(&mut llc);
        }
        llc.take_stats();
        let allocated = batch(&mut llc);
        assert_eq!(
            allocated, 0,
            "{frames}-frame Vantage: one {CHUNK}-request access_batch allocated {allocated} times"
        );
        assert!(
            llc.stats().total_misses() > 0,
            "{frames} frames: the batch never missed"
        );
        assert!(
            llc.stats().total_hits() > 0,
            "{frames} frames: the batch never hit"
        );
    }
}

/// A Z4/52 zcache allocates at most 9 B per frame — the 8 B line store and
/// the 1 B walk-dedup stamp — plus its hash tables (one interleaved row
/// set for its four ways) and 64 B of per-array scratch. Any per-frame
/// position state (a memo of a line's buckets in the other ways) fails
/// here.
#[test]
fn zarray_allocates_at_most_9_bytes_per_frame() {
    const FRAMES: usize = 32 * 1024;
    let tables = std::mem::size_of::<[[[u32; WAY_LANES]; 256]; 8]>();
    let budget = (FRAMES * 9 + tables + 64) as u64;
    let before = allocated_bytes();
    let array = ZArray::new(FRAMES, 4, 52, 11);
    let bytes = allocated_bytes() - before;
    drop(array);
    assert!(
        bytes <= budget,
        "ZArray::new({FRAMES}, 4, 52) allocated {bytes} B, budget {budget} B"
    );
}

/// The tag store's (partition, stamp) count index costs at most 512 B per
/// row — one `u16` per stamp — plus 64 B (the spill list of a cache whose
/// never-filled frames outnumber a row entry), beside the 3 B per frame of
/// its two lanes. Grown one partition at a time, as service mode creates
/// them, the rows of 1022 partitions fit a 1024-row capacity of 512 KiB.
#[test]
fn tag_count_rows_cost_at_most_512_bytes_each() {
    const FRAMES: usize = 64 * 1024;
    for partitions in [4, 1022] {
        let before = allocated_bytes();
        let meta = TagMeta::with_partitions(FRAMES, partitions);
        let bytes = allocated_bytes() - before;
        let budget = (FRAMES * 3 + meta.index_rows() * 512 + 64) as u64;
        assert!(
            bytes <= budget,
            "{partitions} partitions: {bytes} B allocated, budget {budget} B"
        );
    }
    let mut meta = TagMeta::with_partitions(FRAMES, 1);
    let before = allocated_bytes();
    for partitions in 2..=1022 {
        meta.resize_partitions(partitions);
    }
    let grown = allocated_bytes() - before;
    assert!(
        grown <= 1024 * 512 + 64,
        "growing to 1022 partitions allocated {grown} B"
    );
}
