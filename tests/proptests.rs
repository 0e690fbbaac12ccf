//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use vantage_repro::cache::{CacheArray, LineAddr, Walk, ZArray};
use vantage_repro::core::controller::ThresholdTable;
use vantage_repro::core::model::{assoc, managed, sizing};
use vantage_repro::core::{VantageConfig, VantageLlc};
use vantage_repro::partitioning::llc::ways_from_targets;
use vantage_repro::partitioning::{AccessRequest, Llc, PartitionId};
use vantage_repro::ucp::{interpolate_curve, lookahead};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The zcache placement invariant survives arbitrary access sequences:
    /// walks stay well-formed, install keeps every line findable, and
    /// occupancy accounting matches a full scan.
    #[test]
    fn zcache_invariants_under_arbitrary_traffic(
        seed in 0u64..1000,
        ops in prop::collection::vec((0u64..5000, 0usize..52), 50..400),
    ) {
        let mut a = ZArray::new(512, 4, 52, seed);
        let mut walk = Walk::new();
        let mut moves = Vec::new();
        for (addr, victim_hint) in ops {
            let addr = LineAddr(addr);
            if a.lookup(addr).is_some() {
                continue;
            }
            a.walk(addr, &mut walk);
            prop_assert!(!walk.is_empty());
            prop_assert!(walk.len() <= 52);
            // Parent links must point backwards.
            for (i, n) in walk.nodes.iter().enumerate() {
                if let Some(p) = n.parent() {
                    prop_assert!((p as usize) < i);
                }
            }
            let victim = walk.first_empty().unwrap_or(victim_hint % walk.len());
            moves.clear();
            a.install(addr, &walk, victim, &mut moves);
            prop_assert!(a.lookup(addr).is_some(), "installed line must be findable");
        }
        // Occupancy equals the number of distinct frames holding lines.
        let scan = (0..512u32).filter(|&f| a.occupant(f).is_some()).count();
        prop_assert_eq!(scan, a.occupancy());
    }

    /// Way allocation: sums exactly, respects the 1-way floor, and is
    /// monotone-ish (a partition asking for everything gets the most).
    #[test]
    fn way_allocation_properties(
        targets in prop::collection::vec(0u64..100_000, 1..16),
        extra_ways in 0u32..48,
    ) {
        let ways = targets.len() as u32 + extra_ways;
        let alloc = ways_from_targets(&targets, ways);
        prop_assert_eq!(alloc.iter().sum::<u32>(), ways);
        prop_assert!(alloc.iter().all(|&w| w >= 1));
        if let Some((imax, _)) = targets.iter().enumerate().max_by_key(|(_, &t)| t) {
            let wmax = alloc[imax];
            prop_assert!(alloc.iter().all(|&w| w <= wmax + 1), "biggest asker got {wmax}, alloc {alloc:?}");
        }
    }

    /// Lookahead conserves blocks and never starves below the minimum.
    #[test]
    fn lookahead_conserves_blocks(
        curves in prop::collection::vec(
            prop::collection::vec(0u64..10_000, 17..18),
            2..6
        ),
        blocks in 8u32..16,
    ) {
        // Make each curve non-increasing (a valid miss curve).
        let curves: Vec<Vec<u64>> = curves
            .into_iter()
            .map(|mut c| {
                c.sort_unstable_by(|a, b| b.cmp(a));
                c
            })
            .collect();
        let n = curves.len() as u32;
        let blocks = blocks.max(n);
        let alloc = lookahead(&curves, blocks, 1);
        prop_assert_eq!(alloc.iter().sum::<u32>(), blocks);
        prop_assert!(alloc.iter().all(|&b| b >= 1));
    }

    /// Interpolation preserves endpoints and monotonicity.
    #[test]
    fn interpolation_properties(
        curve in prop::collection::vec(0u64..1_000_000, 2..20),
        blocks in 1u32..512,
    ) {
        let mut curve = curve;
        curve.sort_unstable_by(|a, b| b.cmp(a));
        let fine = interpolate_curve(&curve, blocks);
        prop_assert_eq!(fine.len(), blocks as usize + 1);
        prop_assert_eq!(fine[0], curve[0]);
        prop_assert_eq!(*fine.last().unwrap(), *curve.last().unwrap());
        for w in fine.windows(2) {
            prop_assert!(w[1] <= w[0]);
        }
    }

    /// The associativity CDF is a valid, monotone CDF for any R.
    #[test]
    fn assoc_cdf_is_valid(r in 1u32..128, x in 0.0f64..1.0, y in 0.0f64..1.0) {
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        prop_assert!(assoc::cdf(lo, r) <= assoc::cdf(hi, r) + 1e-15);
        prop_assert!((0.0..=1.0).contains(&assoc::cdf(x, r)));
        // Quantile inverts.
        let q = assoc::quantile(x, r);
        prop_assert!((assoc::cdf(q, r) - x).abs() < 1e-9);
    }

    /// Eq. 2 dominates Eq. 3 nowhere above the aperture threshold... more
    /// precisely: demote-on-average never demotes below `1 - A`, while
    /// exactly-one always has positive mass there.
    #[test]
    fn managed_models_ordering(r in 4u32..64, u in 0.05f64..0.5) {
        let a = managed::balanced_aperture(r, 1.0 - u).min(1.0);
        let x = (1.0 - a) * 0.95;
        prop_assert_eq!(managed::average_demotion_cdf(x, a), 0.0);
        prop_assert!(managed::one_demotion_cdf(x, r, u) > 0.0);
    }

    /// The sizing rule is monotone: stricter isolation or fewer candidates
    /// always need a (weakly) larger unmanaged region.
    #[test]
    fn sizing_monotonicity(
        r in 8u32..128,
        pev_exp in -6.0f64..-0.5,
        a_max in 0.1f64..1.0,
    ) {
        let pev = 10f64.powf(pev_exp);
        let u = sizing::unmanaged_fraction(r, pev, a_max, 0.1);
        let stricter = sizing::unmanaged_fraction(r, pev / 10.0, a_max, 0.1);
        prop_assert!(stricter >= u - 1e-12);
        let fewer = sizing::unmanaged_fraction(r / 2, pev, a_max, 0.1);
        prop_assert!(fewer >= u - 1e-12);
    }

    /// Threshold tables: monotone in size, zero at/below target, saturating
    /// at c·A_max.
    #[test]
    fn threshold_table_properties(
        target in 16u64..100_000,
        slack in 0.02f64..0.5,
        a_max in 0.1f64..1.0,
    ) {
        let t = ThresholdTable::try_new(target, slack, a_max, 256, 8).expect("valid controller parameters");
        prop_assert_eq!(t.threshold(target), None);
        let cap = (256.0 * a_max).round() as u32;
        let mut prev = 0u32;
        for k in 1..=12u64 {
            let size = target + k * ((slack * target as f64 / 8.0).ceil() as u64 + 1);
            let thr = t.threshold(size).expect("over target");
            prop_assert!(thr >= prev, "thresholds must not decrease");
            prop_assert!(thr <= cap);
            prev = thr;
        }
        // Aperture is within [0, A_max] and monotone.
        prop_assert!(t.aperture(target * 2 + 16) <= a_max + 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Set-associative and skew arrays never lose an installed line until
    /// it is explicitly evicted, and candidate counts equal the way count.
    #[test]
    fn sa_and_skew_lookup_after_install(
        seed in 0u64..500,
        addrs in prop::collection::vec(0u64..1_000_000, 1..100),
    ) {
        use vantage_repro::cache::{SetAssocArray, SkewArray};
        let mut arrays: Vec<Box<dyn CacheArray>> = vec![
            Box::new(SetAssocArray::hashed(256, 4, seed)),
            Box::new(SetAssocArray::modulo(256, 4)),
            Box::new(SkewArray::new(256, 4, seed)),
        ];
        for a in &mut arrays {
            let mut walk = Walk::new();
            let mut moves = Vec::new();
            for &x in &addrs {
                let addr = LineAddr(x);
                if a.lookup(addr).is_some() {
                    continue;
                }
                a.walk(addr, &mut walk);
                prop_assert_eq!(walk.len(), 4);
                let v = walk.first_empty().unwrap_or(0);
                moves.clear();
                a.install(addr, &walk, v, &mut moves);
                prop_assert!(moves.is_empty(), "flat arrays never relocate");
                prop_assert!(a.lookup(addr).is_some());
            }
        }
    }

    /// Fairness allocation conserves blocks and never starves.
    #[test]
    fn fairness_allocation_conserves(
        raw in prop::collection::vec(
            prop::collection::vec(0u64..10_000, 17..18),
            2..6
        ),
        accesses in prop::collection::vec(1u64..100_000, 6),
    ) {
        use vantage_repro::ucp::equalize_miss_ratios;
        let curves: Vec<Vec<u64>> = raw
            .into_iter()
            .map(|mut c| {
                c.sort_unstable_by(|a, b| b.cmp(a));
                c
            })
            .collect();
        let acc = &accesses[..curves.len()];
        let alloc = equalize_miss_ratios(&curves, acc, 16, 1);
        prop_assert_eq!(alloc.iter().sum::<u32>(), 16);
        prop_assert!(alloc.iter().all(|&b| b >= 1));
    }

    /// State overhead grows monotonically with partition count and stays
    /// small for realistic configurations.
    #[test]
    fn overhead_monotone_in_partitions(lines_kb in 64u64..32_768, parts in 1u32..512) {
        use vantage_repro::core::state_overhead;
        let lines = lines_kb * 16; // 64 B lines
        let o1 = state_overhead(lines, parts, 64);
        let o2 = state_overhead(lines, parts * 2, 64);
        prop_assert!(o2.total_added_bits >= o1.total_added_bits);
        // The per-partition controller registers amortize over the lines,
        // so the "small overhead" claim needs a realistic lines-per-
        // partition ratio (the paper's configs have >= 4K lines per
        // partition; extreme combos like 1K lines / 512 partitions
        // legitimately cost more).
        if lines >= u64::from(parts) * 256 {
            prop_assert!(o1.overhead_fraction < 0.05, "overhead {:.3}", o1.overhead_fraction);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// VantageLlc accounting invariants hold under arbitrary interleavings
    /// of accesses and retargets.
    #[test]
    fn vantage_llc_accounting_invariants(
        seed in 0u64..100,
        phases in prop::collection::vec((0u64..3, 1u64..2000), 2..6),
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut llc = VantageLlc::try_new(
            Box::new(ZArray::new(1024, 4, 52, seed)),
            3,
            VantageConfig::default(),
            seed,
        ).expect("valid Vantage config");
        let mut rng = SmallRng::seed_from_u64(seed);
        for (retarget, accesses) in phases {
            match retarget {
                0 => llc.set_targets(&[512, 256, 256]),
                1 => llc.set_targets(&[100, 800, 124]),
                _ => llc.set_targets(&[341, 341, 342]),
            }
            for _ in 0..accesses {
                let p = rng.gen_range(0..3usize);
                let base = (p as u64 + 1) << 40;
                llc.access(AccessRequest::read(PartitionId::from_index(p), LineAddr(base + rng.gen_range(0..5_000u64))));
            }
            llc.invariants().expect("invariants hold");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Largest-remainder apportionment is exact for any weight vector:
    /// shares sum to exactly `total` (the conservation property every
    /// allocation policy leans on).
    #[test]
    fn apportion_conserves_total(
        total in 0u64..1_000_000,
        weights in prop::collection::vec(0.0f64..100.0, 1..16),
    ) {
        use vantage_repro::ucp::apportion;
        let shares = apportion(total, &weights);
        prop_assert_eq!(shares.len(), weights.len());
        prop_assert_eq!(shares.iter().sum::<u64>(), total);
    }

    /// Snapshot-driven policies conserve the budget for arbitrary inputs,
    /// equal shares stay within one line of each other, and QoS floors are
    /// honored whenever they fit inside the capacity.
    #[test]
    fn snapshot_policies_conserve_budget_and_floors(
        capacity in 8u64..1_000_000,
        misses in prop::collection::vec(0u64..50_000, 2..9),
        weights in prop::collection::vec(0.01f64..10.0, 9),
        min_fracs in prop::collection::vec(0u64..1_000, 9),
    ) {
        use vantage_repro::ucp::{AllocationPolicy, EqualShares, PolicyInput, QosGuarantee};
        let n = misses.len();
        let zeros = vec![0u64; n];
        let input = PolicyInput {
            capacity,
            actual: &zeros,
            hits: &zeros,
            misses: &misses,
            churn: &zeros,
            insertions: &zeros,
            shared_hits: &[],
            ownership_transfers: &[],
            live: &[],
            arrived: &[],
            departed: &[],
        };

        let eq = EqualShares::new().reallocate(&input);
        prop_assert_eq!(eq.len(), n);
        prop_assert_eq!(eq.iter().sum::<u64>(), capacity);
        let (lo, hi) = (eq.iter().min().unwrap(), eq.iter().max().unwrap());
        prop_assert!(hi - lo <= 1, "equal shares skewed: {eq:?}");

        // Minimums span under- and over-committed cases (~0..4.5x capacity).
        let mins: Vec<u64> = min_fracs[..n].iter().map(|&f| f * capacity / 2_000).collect();
        let fits = mins.iter().sum::<u64>() <= capacity;
        let mut qos = QosGuarantee::try_new(mins.clone(), weights[..n].to_vec()).expect("valid QoS spec");
        let t = qos.reallocate(&input);
        prop_assert_eq!(t.iter().sum::<u64>(), capacity);
        if fits {
            for (p, (&got, &min)) in t.iter().zip(&mins).enumerate() {
                prop_assert!(got >= min, "partition {p} got {got} < guaranteed {min}");
            }
        }
        // Policies are pure functions of (state, input): rerun matches.
        prop_assert_eq!(t, qos.reallocate(&input));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stream-driven policies (UCP/Lookahead and the miss-ratio equalizer)
    /// are deterministic for a fixed seed — two instances fed the same
    /// access stream emit identical targets — and conserve the capacity.
    #[test]
    fn stream_policies_deterministic_and_exact(
        seed in 0u64..1_000,
        parts in 2usize..5,
        addrs in prop::collection::vec((0usize..5, 0u64..10_000), 100..400),
    ) {
        use vantage_repro::ucp::{
            AllocationPolicy, MissRatioEqualizer, PolicyInput, UcpGranularity, UcpPolicy,
        };
        let capacity = 8_192u64;
        let gran = UcpGranularity::Fine { blocks: 256 };
        let zeros = vec![0u64; parts];
        let input = PolicyInput {
            capacity,
            actual: &zeros,
            hits: &zeros,
            misses: &zeros,
            churn: &zeros,
            insertions: &zeros,
            shared_hits: &[],
            ownership_transfers: &[],
            live: &[],
            arrived: &[],
            departed: &[],
        };

        let mut a = UcpPolicy::new(parts, 16, 32, 64, capacity, gran, seed);
        let mut b = UcpPolicy::new(parts, 16, 32, 64, capacity, gran, seed);
        for &(p, x) in &addrs {
            let part = p % parts;
            let addr = LineAddr(((part as u64 + 1) << 40) | x);
            AllocationPolicy::observe(&mut a, part, addr);
            AllocationPolicy::observe(&mut b, part, addr);
        }
        let ta = AllocationPolicy::reallocate(&mut a, &input);
        let tb = AllocationPolicy::reallocate(&mut b, &input);
        prop_assert_eq!(&ta, &tb, "lookahead diverged for a fixed seed");
        prop_assert_eq!(ta.iter().sum::<u64>(), capacity);

        let mut m = MissRatioEqualizer::new(parts, 16, 32, 64, capacity, gran, seed);
        let mut m2 = MissRatioEqualizer::new(parts, 16, 32, 64, capacity, gran, seed);
        for &(p, x) in &addrs {
            let part = p % parts;
            let addr = LineAddr(((part as u64 + 1) << 40) | x);
            m.observe(part, addr);
            m2.observe(part, addr);
        }
        let tm = m.reallocate(&input);
        prop_assert_eq!(&tm, &m2.reallocate(&input), "equalizer diverged for a fixed seed");
        prop_assert_eq!(tm.iter().sum::<u64>(), capacity);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The batched access surface is pure sugar: for every scheme,
    /// `access_batch` over arbitrary chunkings of an arbitrary mixed trace
    /// produces the same outcome stream and statistics as serving the
    /// trace one `access` at a time.
    #[test]
    fn access_batch_is_equivalent_to_repeated_access_for_every_scheme(
        seed in 0u64..1000,
        chunk in 1usize..400,
        ops in prop::collection::vec((0usize..4, 0u64..3000, 0u32..4), 200..800),
    ) {
        use vantage_repro::sim::{ArrayKind, BaselineRank, Scheme, SchemeKind, SystemConfig};

        let reqs: Vec<AccessRequest> = ops
            .iter()
            .map(|&(p, a, kind)| {
                let addr = LineAddr(((p as u64 + 1) << 40) + a);
                if kind == 0 { AccessRequest::write(PartitionId::from_index(p), addr) } else { AccessRequest::read(PartitionId::from_index(p), addr) }
            })
            .collect();
        let mut sys = SystemConfig::small_scale();
        sys.l2_lines = 4 * 1024;
        sys.seed = seed;
        let kinds = [
            SchemeKind::Baseline { array: ArrayKind::SetAssoc { ways: 16 }, rank: BaselineRank::Lru },
            SchemeKind::WayPart,
            SchemeKind::Pipp,
            SchemeKind::vantage_paper(),
        ];
        // Every kind is also exercised sharded.
        for kind in &kinds {
            for banks in [1usize, 4] {
                let build = || {
                    Scheme::builder(kind.clone(), sys.clone())
                        .banks(banks)
                        .try_build().expect("valid scheme config")
                };
                let mut one = build();
                let serial: Vec<_> = reqs.iter().map(|&r| one.llc_mut().access(r)).collect();
                let mut many = build();
                let mut batched = Vec::with_capacity(reqs.len());
                for c in reqs.chunks(chunk) {
                    many.llc_mut().access_batch(c, &mut batched);
                }
                prop_assert_eq!(
                    &batched, &serial,
                    "outcomes diverged for {} on {} banks", kind.label(), banks
                );
                prop_assert_eq!(
                    format!("{:?}", many.llc_mut().stats_mut()),
                    format!("{:?}", one.llc_mut().stats_mut()),
                    "stats diverged for {} on {} banks", kind.label(), banks
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Windows served as per-bank runs are observationally identical to
    /// serving the same banked cache one access at a time under adversarial
    /// window schedules — empty windows, single-request windows,
    /// non-divisible window sizes, and tenant churn landing *mid-window*
    /// while ingested work is still queued in the runs. Outcomes are
    /// checked per bank via the cache's own FNV digests against a reference
    /// fold of the serial outcome stream; statistics, partition sizes and
    /// the telemetry record multiset must match exactly.
    #[test]
    fn pipelined_rings_match_serial_under_windows_and_churn(
        seed in 0u64..400,
        windows in prop::collection::vec(0usize..50, 4..20),
        ops in prop::collection::vec((0usize..4, 0u64..2000, 0u32..4), 150..500),
        churn in prop::collection::vec((0usize..500, 0u64..128), 0..4),
    ) {
        use vantage_repro::partitioning::{banked::DIGEST_SEED, BankedLlc, PartitionSpec};
        use vantage_repro::telemetry::{RingSink, Telemetry};

        const BANKS: usize = 4;
        const FRAMES: usize = 2048;
        let fnv = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
        let build = || {
            let banks = (0..BANKS)
                .map(|b| {
                    Box::new(VantageLlc::try_new(
                        Box::new(ZArray::new(FRAMES / BANKS, 4, 52, seed ^ (b as u64 + 1))),
                        4,
                        VantageConfig::default(),
                        seed ^ ((b as u64) << 8),
                    ).expect("valid Vantage config")) as Box<dyn Llc>
                })
                .collect();
            let mut llc = BankedLlc::try_new(banks, seed ^ 0xBA2C).expect("valid bank set");
            llc.set_targets(&[(FRAMES / 4) as u64; 4]).expect("targets fit");
            llc
        };
        let reqs: Vec<AccessRequest> = ops
            .iter()
            .map(|&(p, a, kind)| {
                let addr = LineAddr(((p as u64 + 1) << 40) + a);
                if kind == 0 {
                    AccessRequest::write(PartitionId::from_index(p), addr)
                } else {
                    AccessRequest::read(PartitionId::from_index(p), addr)
                }
            })
            .collect();
        // Churn schedule: at request index `at`, create a fresh partition
        // (alternating with destroying the most recent churn-created one).
        // Traffic only ever targets partitions 0..4, so destroyed
        // partitions are never accessed afterwards.
        let mut churn: Vec<(usize, u64)> = churn;
        churn.retain(|&(at, _)| at < reqs.len());
        churn.sort_unstable();
        churn.dedup_by_key(|&mut (at, _)| at);
        // An all-empty window schedule would never make progress; keep the
        // empty windows (they are an edge case under test) but guarantee
        // at least one request moves per cycle.
        let mut windows = windows;
        if windows.iter().sum::<usize>() == 0 {
            windows.push(3);
        }

        // Serial reference: per-access service, churn applied between
        // accesses, per-bank digests folded from the outcome stream.
        let mut serial = build();
        let (sink_s, reader_s) = RingSink::with_capacity(1 << 18);
        prop_assert!(serial.set_telemetry(Telemetry::new(Box::new(sink_s), 256)));
        let mut ref_digests = [DIGEST_SEED; BANKS];
        let mut ref_lifecycle: Vec<String> = Vec::new();
        let mut ref_created: Vec<PartitionId> = Vec::new();
        {
            let mut churn_it = churn.iter().peekable();
            for (i, &r) in reqs.iter().enumerate() {
                while let Some(&&(at, target)) = churn_it.peek() {
                    if at > i { break; }
                    churn_it.next();
                    if ref_created.is_empty() {
                        let got = serial.create_partition(PartitionSpec::with_target(target));
                        if let Ok(id) = got { ref_created.push(id); }
                        ref_lifecycle.push(format!("{got:?}"));
                    } else {
                        let id = ref_created.pop().unwrap();
                        ref_lifecycle.push(format!("{:?}", serial.destroy_partition(id)));
                    }
                }
                let b = serial.bank_of(r.addr);
                let o = serial.access(r);
                ref_digests[b] = fnv(ref_digests[b], o.is_hit() as u64);
            }
        }
        serial.take_telemetry();
        let ref_stats = format!("{:?}", serial.stats_mut());
        let ref_sizes: Vec<u64> = (0..serial.num_partitions())
            .map(|p| serial.partition_size(PartitionId::from_index(p)))
            .collect();
        let mut ref_tele: Vec<String> =
            reader_s.records().iter().map(|r| format!("{r:?}")).collect();
        ref_tele.sort_unstable();

        // Windowed run: the same stream fed through `run_window` in the
        // generated window sizes; churn ops land wherever they fall —
        // including while ingested requests are still queued in the runs
        // (the lifecycle barrier must drain them first).
        let mut pipe = build();
        let (sink_p, reader_p) = RingSink::with_capacity(1 << 18);
        prop_assert!(pipe.set_telemetry(Telemetry::new(Box::new(sink_p), 256)));
        {
            let mut lifecycle: Vec<String> = Vec::new();
            let mut created: Vec<PartitionId> = Vec::new();
            let mut churn_it = churn.iter().peekable();
            let mut served = 0usize;
            let mut wi = 0usize;
            while served < reqs.len() {
                let want = windows[wi % windows.len()];
                wi += 1;
                let mut end = (served + want).min(reqs.len());
                // A churn op inside this window splits it: requests before
                // the op are ingested (queued, not served), then the
                // lifecycle call fires mid-window.
                match churn_it.peek() {
                    Some(&&(at, _)) if at < end => {
                        end = at.max(served);
                        pipe.ingest(&reqs[served..end]);
                    }
                    _ => pipe.run_window(&reqs[served..end]),
                }
                served = end;
                while let Some(&&(at, target)) = churn_it.peek() {
                    if at > served { break; }
                    churn_it.next();
                    if created.is_empty() {
                        let got = pipe.create_partition(PartitionSpec::with_target(target));
                        if let Ok(id) = got { created.push(id); }
                        lifecycle.push(format!("{got:?}"));
                    } else {
                        let id = created.pop().unwrap();
                        lifecycle.push(format!("{:?}", pipe.destroy_partition(id)));
                    }
                }
            }
            pipe.barrier();
            prop_assert_eq!(&lifecycle, &ref_lifecycle, "lifecycle results diverged");
        }
        pipe.take_telemetry();
        prop_assert_eq!(pipe.bank_digests(), &ref_digests[..], "per-bank outcome digests diverged");
        prop_assert_eq!(format!("{:?}", pipe.stats_mut()), ref_stats, "stats diverged");
        let sizes: Vec<u64> = (0..pipe.num_partitions())
            .map(|p| pipe.partition_size(PartitionId::from_index(p)))
            .collect();
        prop_assert_eq!(sizes, ref_sizes, "partition sizes diverged");
        let mut tele: Vec<String> =
            reader_p.records().iter().map(|r| format!("{r:?}")).collect();
        tele.sort_unstable();
        prop_assert_eq!(tele, ref_tele, "telemetry record multiset diverged");
    }
}
