//! `cache` layer probes: hash, lookup, walk, install, tag-metadata gather
//! and ownership resolution, each on its own, over the addresses of the
//! workload's request slice.

use std::hint::black_box;

use vantage_cache::{
    CacheArray, H3Hasher, LineAddr, Ownership, SetAssocArray, ShareMode, SkewArray, TagMeta, Walk,
    ZArray,
};

use super::{Meter, ProbeInput};
use crate::gen::private_line;
use crate::report::Metrics;
use crate::workloads::SYSTEM_SEED;

/// Flipped into an address to get one the array cannot hold (the slice's
/// addresses never have it set on both sides of a lookup).
const ABSENT: u64 = 1 << 62;
/// A partition number no workload uses, for filler lines.
const FILLER_PART: usize = 4000;
/// Walks and installs timed per repetition.
const WALKS: usize = 8 * 1024;

/// Installs `addrs`, then filler lines, until the array holds `occupancy`
/// lines (what the workload's cache held), evicting the last candidate when
/// a walk finds no empty frame.
fn fill(array: &mut dyn CacheArray, addrs: &[LineAddr], occupancy: usize) {
    let mut walk = Walk::with_capacity(64);
    let mut moves = Vec::new();
    let filler = (0..).map(|i| private_line(FILLER_PART, i));
    for a in addrs.iter().copied().chain(filler) {
        if array.occupancy() >= occupancy.min(array.num_frames()) {
            break;
        }
        if array.lookup(a).is_none() {
            array.walk(a, &mut walk);
            let victim = walk.first_empty().unwrap_or(walk.len() - 1);
            moves.clear();
            array.install(a, &walk, victim, &mut moves);
        }
    }
}

fn lookup_ns(m: &mut Meter, array: &dyn CacheArray, addrs: &[LineAddr]) -> (f64, u64) {
    let mut hits = 0;
    let ns = m.ns_per_op(addrs.len(), |_| {
        hits = 0;
        for &a in addrs {
            hits += u64::from(array.lookup(a).is_some());
        }
        black_box(hits);
    });
    (ns, hits)
}

pub fn run(m: &mut Meter, input: &ProbeInput, mx: &mut Metrics) {
    let warm: Vec<LineAddr> = input.warm().iter().map(|r| r.addr).collect();
    let addrs: Vec<LineAddr> = input.measured().iter().map(|r| r.addr).collect();
    let n = addrs.len();

    let hasher = H3Hasher::new(SYSTEM_SEED);
    let ns = m.ns_per_op(n, |_| {
        let mut acc = 0u32;
        for a in &addrs {
            acc ^= hasher.hash(a.0);
        }
        black_box(acc);
    });
    mx.set("cache.h3_hash_ns", ns);

    let mut z = ZArray::new(input.frames, 4, input.cands, SYSTEM_SEED);
    fill(&mut z, &warm, input.occupancy);
    let (ns, hits) = lookup_ns(m, &z, &addrs);
    mx.set("cache.z_lookup_ns", ns);
    mx.set(
        "cache.z_lookup_hit_pct",
        hits as f64 * 100.0 / n.max(1) as f64,
    );

    // Walks for addresses the array does not hold; nothing is installed, so
    // every repetition walks the same array.
    let absent: Vec<LineAddr> = addrs
        .iter()
        .take(WALKS)
        .map(|a| LineAddr(a.0 ^ ABSENT))
        .collect();
    let mut walk = Walk::with_capacity(64);
    let mut candidates = 0usize;
    let walk_ns = m.ns_per_op(absent.len(), |_| {
        candidates = 0;
        for &a in &absent {
            z.walk(a, &mut walk);
            candidates += walk.len();
        }
        black_box(candidates);
    });
    mx.set("cache.z_walk_ns", walk_ns);
    mx.set(
        "cache.z_walk_candidates",
        candidates as f64 / absent.len().max(1) as f64,
    );

    // The frames of those walks, for the tag-metadata gather below.
    let mut walk_frames: Vec<u32> = Vec::with_capacity(candidates);
    for &a in &absent {
        z.walk(a, &mut walk);
        walk_frames.extend(walk.nodes.iter().map(|nd| nd.frame));
    }

    // Walk + install, evicting the deepest candidate (the longest relocation
    // chain); install alone is the difference to the walk. Each repetition
    // installs fresh addresses.
    let mut moves = Vec::new();
    let (mut relocations, mut installs) = (0usize, 0usize);
    let both_ns = m.ns_per_op(absent.len(), |rep| {
        for &a in &absent {
            let a = LineAddr(a.0 ^ ((rep as u64 + 1) << 48));
            z.walk(a, &mut walk);
            moves.clear();
            z.install(a, &walk, walk.len() - 1, &mut moves);
            relocations += moves.len();
            installs += 1;
        }
    });
    mx.set("cache.z_install_ns", (both_ns - walk_ns).max(0.0));
    mx.set(
        "cache.z_relocations",
        relocations as f64 / installs.max(1) as f64,
    );

    let mut meta = TagMeta::new(input.frames);
    for f in 0..input.frames {
        meta.set(f, (f % input.parts) as u16, f as u8);
    }
    let ns = m.ns_per_op(absent.len(), |_| {
        let mut acc = 0u32;
        for &f in &walk_frames {
            acc =
                acc.wrapping_add(u32::from(meta.part(f as usize)) + u32::from(meta.ts(f as usize)));
        }
        black_box(acc);
    });
    mx.set("cache.tagmeta_gather_ns", ns);

    let mut own = Ownership::new(ShareMode::Pin, input.parts);
    let ns = m.ns_per_op(n, |_| {
        let mut acc = 0u64;
        for r in input.measured() {
            let part = r.part.raw();
            acc ^= own.effective_addr(part, r.addr).0;
            acc += u64::from(own.on_shared_hit(part));
        }
        black_box(acc);
    });
    mx.set("cache.ownership_resolve_ns", ns);

    let mut sa = SetAssocArray::hashed(input.frames, 16, SYSTEM_SEED);
    fill(&mut sa, &warm, input.occupancy);
    mx.set("cache.sa16_lookup_ns", lookup_ns(m, &sa, &addrs).0);
    let mut skew = SkewArray::new(input.frames, 4, SYSTEM_SEED);
    fill(&mut skew, &warm, input.occupancy);
    mx.set("cache.skew4_lookup_ns", lookup_ns(m, &skew, &addrs).0);
}
