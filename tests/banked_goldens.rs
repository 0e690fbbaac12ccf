//! Goldens for the banked machine: 4-bank Vantage Z4/52 and 4-bank
//! WayPart, built through `Scheme::builder(..).banks(4)`, on one fixed
//! stream with a mid-run `set_targets` flip (plus a `create_partition` and a
//! `destroy_partition` on Vantage).
//!
//! The stream is served three ways — one `access` per request, `access_batch`
//! in 777-request chunks, and `run_window` — and every way must land on the
//! same recorded values: the outcome digest,
//! `LlcStats`, partition sizes, per-bank outcome digests and a digest of the
//! snapshot bytes. The values were recorded when the banked machine was
//! still two types (a grouping `BankedLlc` and a ring-buffered
//! `PipelinedBankedLlc` over it), so they pin whatever serves banked
//! requests to what both of those produced.

use vantage_repro::cache::LineAddr;
use vantage_repro::partitioning::{AccessOutcome, AccessRequest, PartitionId, PartitionSpec};
use vantage_repro::sim::{Scheme, SchemeKind, SystemConfig};
use vantage_repro::snapshot::Encoder;

const BANKS: usize = 4;
const CHUNK: usize = 777;
const WINDOW: usize = 2_500;
/// Requests per phase; phases are split by the target flip and lifecycle.
const PHASE: u64 = 30_000;
/// Lines in each partition's working set: four of them are twice the cache.
const WS: u64 = 16 * 1024;
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: the stream's only source of randomness.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv(d: &mut u64, v: u64) {
    *d ^= v;
    *d = d.wrapping_mul(0x0100_0000_01b3);
}

/// Phase `phase`'s requests, spread over the `live` partitions. Addresses
/// are scrambled so the H3-indexed arrays see high-entropy input.
fn phase_reqs(phase: u64, live: &[PartitionId]) -> Vec<AccessRequest> {
    (0..PHASE)
        .map(|i| {
            let r = mix(phase << 32 | i);
            let part = live[(r >> 40) as usize % live.len()];
            let line = (r & 0xFFFF_FFFF) % WS;
            let addr = LineAddr(mix((part.index() as u64) << 32 | line) >> 24);
            AccessRequest::read(part, addr)
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Drive {
    Access,
    Batch,
    Window,
}

struct Run {
    scheme: Scheme,
    drive: Drive,
    /// FNV over every outcome in request order (not kept by `run_window`).
    outcomes: u64,
    /// Per-bank FNV over hit bits, each bank's outcomes in request order.
    banks: [u64; BANKS],
}

impl Run {
    fn serve(&mut self, reqs: &[AccessRequest]) {
        let mut out = Vec::with_capacity(reqs.len());
        match self.drive {
            Drive::Access => {
                let llc = self.scheme.llc_mut();
                out.extend(reqs.iter().map(|&r| llc.access(r)));
            }
            Drive::Batch => {
                for chunk in reqs.chunks(CHUNK) {
                    self.scheme.llc_mut().access_batch(chunk, &mut out);
                }
            }
            Drive::Window => {
                let Scheme::Pipelined { llc, .. } = &mut self.scheme else {
                    panic!("a banked machine serves windows");
                };
                for window in reqs.chunks(WINDOW) {
                    llc.run_window(window);
                }
                return;
            }
        }
        assert_eq!(out.len(), reqs.len());
        let sharded = self.scheme.as_sharded().expect("banked machine");
        for (req, o) in reqs.iter().zip(&out) {
            let hit = u64::from(*o == AccessOutcome::Hit);
            fnv(&mut self.outcomes, hit);
            fnv(&mut self.banks[sharded.bank_of(req.addr)], hit);
        }
    }
}

#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Option<u64>,
    banks: [u64; BANKS],
    stats: String,
    sizes: Vec<u64>,
    state: u64,
}

fn run(kind: SchemeKind, lifecycle: bool, drive: Drive) -> Observed {
    let scheme = Scheme::builder(kind, SystemConfig::small_scale())
        .banks(BANKS)
        .try_build()
        .expect("valid banked machine");
    let mut run = Run {
        scheme,
        drive,
        outcomes: FNV_SEED,
        banks: [FNV_SEED; BANKS],
    };
    let llc = run.scheme.llc_mut();
    llc.set_targets(&[14_336, 8_192, 6_144, 4_096])
        .expect("targets fit");
    let mut live: Vec<PartitionId> = (0..4).map(PartitionId::from_index).collect();

    run.serve(&phase_reqs(0, &live));
    run.scheme
        .llc_mut()
        .set_targets(&[4_096, 6_144, 8_192, 14_336])
        .expect("targets fit");
    if lifecycle {
        let id = run
            .scheme
            .llc_mut()
            .create_partition(PartitionSpec::with_target(4_096))
            .expect("a fresh slot");
        assert_eq!(id, PartitionId::from_index(4));
        live.push(id);
    }
    run.serve(&phase_reqs(1, &live));
    if lifecycle {
        let gone = live.remove(1);
        run.scheme
            .llc_mut()
            .destroy_partition(gone)
            .expect("live slot destroys");
    }
    run.serve(&phase_reqs(2, &live));
    run.scheme.epoch_barrier();

    if let Scheme::Pipelined { llc, .. } = &run.scheme {
        if !matches!(drive, Drive::Window) {
            assert_eq!(llc.bank_digests(), &run.banks[..], "engine digests");
        }
        run.banks.copy_from_slice(llc.bank_digests());
    }
    let llc = run.scheme.llc_mut();
    let stats = format!("{:?}", llc.stats_mut());
    let sizes = (0..llc.num_partitions())
        .map(|p| llc.partition_size(PartitionId::from_index(p)))
        .collect();
    let mut enc = Encoder::new();
    llc.save_state(&mut enc);
    let mut state = FNV_SEED;
    for b in enc.into_bytes() {
        fnv(&mut state, u64::from(b));
    }
    Observed {
        outcomes: (!matches!(drive, Drive::Window)).then_some(run.outcomes),
        banks: run.banks,
        stats,
        sizes,
        state,
    }
}

const DRIVES: [Drive; 3] = [Drive::Access, Drive::Batch, Drive::Window];

fn check(kind: SchemeKind, lifecycle: bool, want: &Observed) {
    for drive in DRIVES {
        let mut got = run(kind.clone(), lifecycle, drive);
        if got.outcomes.is_none() {
            // `run_window` hands back no outcomes; everything else must match.
            got.outcomes = want.outcomes;
        }
        assert_eq!(&got, want, "{} driven by {drive:?}", kind.label());
    }
}

#[test]
fn banked_vantage_goldens() {
    check(
        SchemeKind::vantage_paper(),
        true,
        &Observed {
            outcomes: Some(0x0429_b371_dc06_4130),
            banks: [
                0xf231_b09f_b810_af1a,
                0x0b0e_66d1_871d_eda4,
                0xe5d0_75be_ae05_f614,
                0x5f1b_5325_1a03_4ea5,
            ],
            stats: "LlcStats { hits: [6364, 3870, 8202, 9180, 3421], \
                    misses: [14566, 9562, 12713, 11830, 10292], evictions: 26233 }"
                .into(),
            sizes: vec![3911, 81, 7783, 11830, 908],
            state: 0xaabc_4a77_52a5_46ae,
        },
    );
}

#[test]
fn banked_waypart_goldens() {
    check(
        SchemeKind::WayPart,
        false,
        &Observed {
            outcomes: Some(0xc3bb_0675_0494_3e3b),
            banks: [
                0xb47b_06a3_ee98_e9de,
                0xbc57_2dd4_b557_4e9e,
                0xcf57_b2c4_9486_6a19,
                0x2892_99ae_e208_f279,
            ],
            stats: "LlcStats { hits: [7035, 6898, 7314, 8137], \
                    misses: [15513, 15424, 15314, 14365], evictions: 30902 }"
                .into(),
            sizes: vec![5747, 6183, 7547, 10237],
            state: 0x38a9_ec3b_65b6_a7f1,
        },
    );
}
