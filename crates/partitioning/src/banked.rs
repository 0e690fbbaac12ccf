//! Multi-bank LLC organization (Table 2: "8 MB NUCA, 4 banks").
//!
//! Large shared caches are banked: addresses interleave across banks, each
//! bank has its own array and controller, and partition targets are split
//! per bank — which is exactly how the paper accounts its controller state
//! ("the controller ... only needs to track about 256 bits of state per
//! partition ... For 32 partitions and 4 banks (for an 8 MB cache), this
//! represents 4 KBytes", §4.3).
//!
//! [`BankedLlc`] shards *any* [`Llc`] implementation across banks with a
//! nonlinear address hash and deals targets evenly, aggregating
//! statistics on demand. Because Vantage's guarantees are per-controller
//! and its unmanaged-region math is scale-free, a banked Vantage inherits
//! the same bounds bank-by-bank.

use vantage_cache::hash::mix_bucket;
use vantage_cache::{LineAddr, PartitionId, ShareMode};
use vantage_telemetry::{SharedSink, Telemetry};

use crate::error::{SchemeConfigError, TargetsError};
use crate::llc::{AccessOutcome, AccessRequest, Llc, LlcStats};
use crate::sharded::Sharded;

/// An address-interleaved multi-bank LLC.
///
/// Telemetry installed via [`Llc::set_telemetry`] fans out to every bank
/// through a [`SharedSink`]: each bank's records funnel into the one
/// installed sink, tagged with the originating bank (file sinks keep the
/// tag, in-memory sinks drop it). Each bank runs its own sampling clock, so
/// per-partition samples appear once per bank per period.
///
/// # Example
///
/// ```
/// use vantage_partitioning::{AccessRequest, BankedLlc, BaselineLlc, Llc, PartitionId, RankPolicy};
/// use vantage_cache::SetAssocArray;
///
/// let banks: Vec<Box<dyn Llc>> = (0..4)
///     .map(|b| {
///         Box::new(BaselineLlc::try_new(
///             Box::new(SetAssocArray::hashed(1024, 16, b)),
///             2,
///             RankPolicy::Lru,
///         ).expect("valid baseline geometry")) as Box<dyn Llc>
///     })
///     .collect();
/// let mut llc = BankedLlc::try_new(banks, 7).expect("valid bank set");
/// assert_eq!(llc.capacity(), 4096);
/// llc.access(AccessRequest::read(PartitionId::from_index(0), 0x123.into()));
/// ```
pub struct BankedLlc {
    banks: Vec<Box<dyn Llc>>,
    bank_seed: u64,
    partitions: usize,
    /// Lazily aggregated statistics (rebuilt on demand).
    agg: LlcStats,
    /// The shared fan-out handle (+ sample period) while telemetry is
    /// installed, used to recover the caller's sink on `take_telemetry`.
    tele: Option<(SharedSink, u64)>,
    name: String,
    /// Per-bank request grouping scratch for `access_batch` (index lists
    /// and request buffers, reused across batches).
    group_idxs: Vec<Vec<u32>>,
    group_reqs: Vec<Vec<AccessRequest>>,
    group_out: Vec<AccessOutcome>,
}

impl BankedLlc {
    /// Assembles a banked LLC from per-bank caches.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeConfigError::NoBanks`] for an empty bank list and
    /// [`SchemeConfigError::BankPartitionMismatch`] when the banks disagree
    /// on partition count.
    pub fn try_new(banks: Vec<Box<dyn Llc>>, bank_seed: u64) -> Result<Self, SchemeConfigError> {
        if banks.is_empty() {
            return Err(SchemeConfigError::NoBanks);
        }
        let partitions = banks[0].num_partitions();
        if !banks.iter().all(|b| b.num_partitions() == partitions) {
            return Err(SchemeConfigError::BankPartitionMismatch);
        }
        let name = format!("{}x{}", banks.len(), banks[0].name());
        let n = banks.len();
        Ok(Self {
            banks,
            bank_seed,
            partitions,
            agg: LlcStats::new(partitions),
            tele: None,
            name,
            group_idxs: vec![Vec::new(); n],
            group_reqs: vec![Vec::new(); n],
            group_out: Vec::new(),
        })
    }

    /// The seed of the bank-steering hash.
    pub fn bank_seed(&self) -> u64 {
        self.bank_seed
    }

    /// Disjoint mutable views of all banks, for engines that drive banks
    /// from worker threads.
    pub(crate) fn banks_mut(&mut self) -> &mut [Box<dyn Llc>] {
        &mut self.banks
    }

    fn refresh_stats(&mut self) {
        self.agg.reset();
        for b in &self.banks {
            let s = b.stats();
            for p in 0..self.partitions {
                self.agg.hits[p] += s.hits[p];
                self.agg.misses[p] += s.misses[p];
            }
            self.agg.evictions += s.evictions;
        }
    }
}

/// Splits `targets` across `n` banks: every bank gets `t / n` lines of each
/// target, and the remainders are dealt round-robin from a running offset
/// (partition `i`'s extra lines go to banks `o_i, o_i + 1, ...` with
/// `o_i = (r_0 + ... + r_{i-1}) mod n`). Each bank's share sums to
/// `⌊Σt/n⌋` or `⌈Σt/n⌉`, so no bank overfills while the whole fits, and
/// targets divisible by `n` split exactly evenly.
fn bank_shares(targets: &[u64], n: usize) -> Vec<Vec<u64>> {
    let mut shares = vec![Vec::with_capacity(targets.len()); n];
    let mut offset = 0;
    for &t in targets {
        let rem = (t % n as u64) as usize;
        for (b, share) in shares.iter_mut().enumerate() {
            share.push(t / n as u64 + u64::from((b + n - offset) % n < rem));
        }
        offset = (offset + rem) % n;
    }
    shares
}

impl Llc for BankedLlc {
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        let bank = self.bank_of(req.addr);
        self.banks[bank].access(req)
    }

    /// Groups the batch by bank (stable, preserving per-bank request order)
    /// and serves each bank's group through its own `access_batch`, so
    /// per-bank batch specializations (e.g. Vantage's prefetching loop) see
    /// long runs instead of interleaved singletons. Outcomes land in request
    /// order.
    fn access_batch(&mut self, reqs: &[AccessRequest], out: &mut Vec<AccessOutcome>) {
        let n = self.banks.len();
        if n == 1 {
            return self.banks[0].access_batch(reqs, out);
        }
        for b in 0..n {
            self.group_idxs[b].clear();
            self.group_reqs[b].clear();
        }
        for (i, &req) in reqs.iter().enumerate() {
            let b = mix_bucket(req.addr.0, self.bank_seed, n as u32) as usize;
            self.group_idxs[b].push(i as u32);
            self.group_reqs[b].push(req);
        }
        let start = out.len();
        out.resize(start + reqs.len(), AccessOutcome::Miss);
        for (b, bank) in self.banks.iter_mut().enumerate() {
            self.group_out.clear();
            bank.access_batch(&self.group_reqs[b], &mut self.group_out);
            for (&i, &o) in self.group_idxs[b].iter().zip(&self.group_out) {
                out[start + i as usize] = o;
            }
        }
    }

    fn num_partitions(&self) -> usize {
        self.partitions
    }

    fn capacity(&self) -> usize {
        self.banks.iter().map(|b| b.capacity()).sum()
    }

    /// Deals each target across the banks — `t / n` lines each, the
    /// remainders round-robin so no bank overfills while the whole fits —
    /// checking every bank's share before any bank moves.
    fn set_targets(&mut self, targets: &[u64]) -> Result<(), TargetsError> {
        TargetsError::check(targets, self.partitions, self.capacity() as u64)?;
        let shares = bank_shares(targets, self.banks.len());
        // Only banks of unequal size can fail here; refuse before any moves.
        for (bank, share) in self.banks.iter().zip(&shares) {
            TargetsError::check(share, self.partitions, bank.capacity() as u64)?;
        }
        for (bank, share) in self.banks.iter_mut().zip(&shares) {
            bank.set_targets(share)?;
        }
        Ok(())
    }

    fn partition_size(&self, part: PartitionId) -> u64 {
        self.banks.iter().map(|b| b.partition_size(part)).sum()
    }

    /// Creates the partition in every bank, splitting the requested target
    /// evenly (the remainder to the lowest banks; each bank grants only
    /// what its spare capacity allows). Banks move in lockstep —
    /// construction enforces equal populations and every lifecycle call
    /// fans out — so all banks hand back the same slot.
    fn create_partition(
        &mut self,
        spec: crate::llc::PartitionSpec,
    ) -> Result<PartitionId, crate::llc::LifecycleError> {
        let n = self.banks.len() as u64;
        let mut id = None;
        for (b, bank) in self.banks.iter_mut().enumerate() {
            let share = spec.target / n + u64::from((b as u64) < spec.target % n);
            // Bank 0 screens the request (Unsupported/Exhausted fire before
            // any state moves); later banks cannot disagree with it.
            let got = bank.create_partition(crate::llc::PartitionSpec::with_target(share))?;
            assert!(
                id.replace(got).is_none_or(|prev| prev == got),
                "banks diverged on partition slot assignment"
            );
        }
        self.partitions = self.banks[0].num_partitions();
        self.agg.resize(self.partitions);
        Ok(id.expect("at least one bank"))
    }

    /// Destroys the partition in every bank; each bank drains it through
    /// its own demotion machinery.
    fn destroy_partition(&mut self, part: PartitionId) -> Result<(), crate::llc::LifecycleError> {
        for bank in &mut self.banks {
            bank.destroy_partition(part)?;
        }
        Ok(())
    }

    /// Sums each bank's snapshot, so bank-local dynamics metering (e.g.
    /// Vantage churn counters) survives sharding. Lifecycle lanes come from
    /// bank 0 (banks move in lockstep, so the deltas are identical; the
    /// other banks' queues are drained and discarded).
    fn observations(&mut self) -> crate::llc::PartitionObservations {
        let mut obs = crate::llc::PartitionObservations::new(self.partitions);
        for (b, bank) in self.banks.iter_mut().enumerate() {
            let bo = bank.observations();
            for p in 0..self.partitions {
                obs.actual[p] += bo.actual[p];
                obs.targets[p] += bo.targets[p];
                obs.hits[p] += bo.hits[p];
                obs.misses[p] += bo.misses[p];
                obs.shared_hits[p] += bo.shared_hits[p];
                obs.ownership_transfers[p] += bo.ownership_transfers[p];
                obs.churn[p] += bo.churn[p];
                obs.insertions[p] += bo.insertions[p];
            }
            if b == 0 {
                obs.live = bo.live;
                obs.arrived = bo.arrived;
                obs.departed = bo.departed;
            }
        }
        obs
    }

    /// Applies the mode to every bank. Banks are homogeneous (same scheme,
    /// same config), so they accept or reject uniformly and the shards
    /// never disagree on sharing semantics.
    fn set_share_mode(&mut self, mode: ShareMode) -> bool {
        let mut ok = true;
        for bank in &mut self.banks {
            ok &= bank.set_share_mode(mode);
        }
        ok
    }

    fn share_mode(&self) -> ShareMode {
        self.banks[0].share_mode()
    }

    fn stats(&self) -> &LlcStats {
        // `stats()` is a cheap borrow by contract; BankedLlc callers should
        // use `stats_mut` (which refreshes) or per-bank stats for live
        // values. We refresh on the mutable path only.
        &self.agg
    }

    fn stats_mut(&mut self) -> &mut LlcStats {
        self.refresh_stats();
        &mut self.agg
    }

    /// Takes every bank's interval too: swapping out only the lazily
    /// summed aggregate would let the next refresh re-sum the same counts.
    fn take_stats(&mut self) -> LlcStats {
        self.refresh_stats();
        for bank in &mut self.banks {
            bank.take_stats();
        }
        std::mem::replace(&mut self.agg, LlcStats::new(self.partitions))
    }

    /// Fans the handle's sink out to every bank through a [`SharedSink`],
    /// tagging each bank's records. Returns `false` (leaving telemetry
    /// uninstalled) if any bank rejects telemetry or the handle is disabled.
    fn set_telemetry(&mut self, telemetry: Telemetry) -> bool {
        let (sink, period) = telemetry.into_parts();
        let Some(sink) = sink else {
            return false;
        };
        let shared = SharedSink::new(sink);
        for (b, bank) in self.banks.iter_mut().enumerate() {
            let tagged = Box::new(shared.with_bank(b as u16));
            if !bank.set_telemetry(Telemetry::new(tagged, period)) {
                // Roll back the banks already armed so no half-installed
                // fan-out leaks records.
                for armed in &mut self.banks[..b] {
                    armed.take_telemetry();
                }
                return false;
            }
        }
        self.tele = Some((shared, period));
        true
    }

    /// Disarms every bank and returns a handle wrapping the original sink.
    fn take_telemetry(&mut self) -> Option<Telemetry> {
        let (shared, period) = self.tele.take()?;
        for bank in &mut self.banks {
            // Dropping the per-bank handle releases its SharedSink clone
            // (flushing through the shared mutex on the way out).
            bank.take_telemetry();
        }
        match shared.try_unwrap() {
            Ok(sink) => Some(Telemetry::new(sink, period)),
            // A bank failed to give its clone back (it panicked mid-access,
            // say); the caller's sink is unrecoverable but all records up to
            // the failure were flushed.
            Err(_) => None,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl vantage_snapshot::Snapshot for BankedLlc {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        // One length-prefixed blob per bank: a bank's decode errors stay
        // contained to its own payload, and banks restore in order.
        enc.put_usize(self.banks.len());
        for bank in &self.banks {
            let mut sub = vantage_snapshot::Encoder::new();
            bank.save_state(&mut sub);
            enc.put_bytes(&sub.into_bytes());
        }
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        let n = dec.take_usize()?;
        if n != self.banks.len() {
            return Err(dec.mismatch(&format!(
                "cache has {} banks, snapshot has {n}",
                self.banks.len()
            )));
        }
        for bank in &mut self.banks {
            let blob = dec.take_bytes()?;
            let mut sub = vantage_snapshot::Decoder::new(&blob, "bank state");
            bank.load_state(&mut sub)?;
            sub.finish()?;
        }
        // Service mode: the saved run may have created/destroyed partitions,
        // resizing each bank's slot table. Re-derive the shared count and
        // insist the banks still agree.
        let partitions = self.banks[0].num_partitions();
        if !self.banks.iter().all(|b| b.num_partitions() == partitions) {
            return Err(dec.mismatch("banks disagree on partition count after restore"));
        }
        self.partitions = partitions;
        self.agg.resize(partitions);
        self.refresh_stats();
        Ok(())
    }
}

impl Sharded for BankedLlc {
    fn num_banks(&self) -> usize {
        self.banks.len()
    }

    #[inline]
    fn bank_of(&self, addr: LineAddr) -> usize {
        mix_bucket(addr.0, self.bank_seed, self.banks.len() as u32) as usize
    }

    fn bank(&self, i: usize) -> &dyn Llc {
        self.banks[i].as_ref()
    }

    fn bank_mut(&mut self, i: usize) -> &mut dyn Llc {
        self.banks[i].as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{BaselineLlc, RankPolicy};
    use crate::way_part::WayPartLlc;
    use vantage_cache::ZArray;

    fn banked_baseline(banks: usize, lines_per_bank: usize) -> BankedLlc {
        let banks: Vec<Box<dyn Llc>> = (0..banks as u64)
            .map(|b| {
                Box::new(
                    BaselineLlc::try_new(
                        Box::new(ZArray::new(lines_per_bank, 4, 16, b)),
                        2,
                        RankPolicy::Lru,
                    )
                    .expect("valid baseline geometry"),
                ) as Box<dyn Llc>
            })
            .collect();
        BankedLlc::try_new(banks, 99).expect("valid bank set")
    }

    #[test]
    fn interleaving_spreads_addresses() {
        let llc = banked_baseline(4, 256);
        let mut counts = [0usize; 4];
        for i in 0..4000u64 {
            counts[llc.bank_of(LineAddr(i))] += 1;
        }
        for &c in &counts {
            assert!(c > 800 && c < 1200, "imbalanced banks: {counts:?}");
        }
    }

    #[test]
    fn same_address_always_same_bank() {
        let mut llc = banked_baseline(4, 256);
        assert_eq!(
            llc.access(AccessRequest::read(
                PartitionId::from_index(0),
                LineAddr(42)
            )),
            AccessOutcome::Miss
        );
        assert_eq!(
            llc.access(AccessRequest::read(
                PartitionId::from_index(0),
                LineAddr(42)
            )),
            AccessOutcome::Hit
        );
    }

    #[test]
    fn stats_aggregate_across_banks() {
        let mut llc = banked_baseline(2, 128);
        for i in 0..1000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index((i % 2) as usize),
                LineAddr(i),
            ));
        }
        let s = llc.stats_mut();
        assert_eq!(s.total_hits() + s.total_misses(), 1000);
        // Taking an interval empties the banks too, so the next interval
        // holds only its own accesses.
        let s = llc.take_stats();
        assert_eq!(s.total_hits() + s.total_misses(), 1000);
        for i in 0..300u64 {
            llc.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(i)));
        }
        let s = llc.take_stats();
        assert_eq!(s.total_hits() + s.total_misses(), 300);
    }

    #[test]
    fn targets_split_exactly() {
        let banks: Vec<Box<dyn Llc>> = (0..4u64)
            .map(|b| {
                Box::new(WayPartLlc::try_new(1024, 16, 2, b).expect("valid way-partition geometry"))
                    as Box<dyn Llc>
            })
            .collect();
        let mut llc = BankedLlc::try_new(banks, 1).expect("valid bank set");
        // Neither target divides by 4: the remainders must still hand out
        // whole-line shares summing to the total.
        llc.set_targets(&[2601, 1495]).expect("targets fit");
        assert_eq!(llc.capacity(), 4096);
        // Every bank received a valid (way-rounded) allocation; run traffic
        // to confirm the shards behave.
        for i in 0..20_000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index((i % 2) as usize),
                LineAddr(i % 3000),
            ));
        }
        assert!(
            llc.partition_size(PartitionId::from_index(0))
                > llc.partition_size(PartitionId::from_index(1))
        );
    }

    #[test]
    fn bank_shares_conserve_targets_and_never_overfill() {
        let cases: [(&[u64], usize); 5] = [
            // Sums to exactly 4 x 1024, yet dealing every remainder from
            // bank 0 would give bank 0 1025 lines.
            (&[1027, 1023, 1023, 1023], 4),
            (&[2601, 1495], 4),
            (&[1, 1, 1, 1, 1, 1, 1], 8),
            (&[8191, 1], 8),
            (&[0, 0, 5], 3),
        ];
        for (targets, n) in cases {
            let shares = bank_shares(targets, n);
            let total: u64 = targets.iter().sum();
            for share in &shares {
                let sum: u64 = share.iter().sum();
                assert!(
                    sum <= total.div_ceil(n as u64),
                    "{targets:?}/{n}: {shares:?}"
                );
            }
            for (p, &t) in targets.iter().enumerate() {
                let dealt: u64 = shares.iter().map(|s| s[p]).sum();
                assert_eq!(dealt, t, "{targets:?}/{n}: {shares:?}");
            }
        }
        // Divisible targets split exactly evenly.
        assert_eq!(bank_shares(&[4096; 8], 8), vec![vec![512; 8]; 8]);
    }

    #[test]
    fn per_bank_capacity_and_name() {
        let llc = banked_baseline(4, 256);
        assert_eq!(llc.num_banks(), 4);
        assert_eq!(llc.capacity(), 1024);
        assert!(llc.name().starts_with("4x"));
    }

    #[test]
    fn try_new_reports_structured_errors() {
        use crate::SchemeConfigError;
        assert_eq!(
            BankedLlc::try_new(Vec::new(), 0).err(),
            Some(SchemeConfigError::NoBanks)
        );
        let banks: Vec<Box<dyn Llc>> = vec![
            Box::new(WayPartLlc::try_new(256, 4, 2, 0).expect("valid way-partition geometry")),
            Box::new(WayPartLlc::try_new(256, 4, 3, 1).expect("valid way-partition geometry")),
        ];
        assert_eq!(
            BankedLlc::try_new(banks, 0).err(),
            Some(SchemeConfigError::BankPartitionMismatch)
        );
    }

    #[test]
    fn telemetry_fans_out_to_banks_and_recovers_sink() {
        use vantage_telemetry::{RingSink, Telemetry, TelemetryEvent, TelemetryRecord};
        let mut llc = banked_baseline(2, 128);
        let (sink, reader) = RingSink::with_capacity(65536);
        assert!(llc.set_telemetry(Telemetry::new(Box::new(sink), 64)));
        for i in 0..4000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index((i % 2) as usize),
                LineAddr(i % 400),
            ));
        }
        let recs = reader.records();
        assert!(
            recs.iter()
                .any(|r| matches!(r, TelemetryRecord::Event(TelemetryEvent::Eviction { .. }))),
            "bank events reach the shared sink"
        );
        assert!(
            recs.iter().any(|r| matches!(r, TelemetryRecord::Sample(_))),
            "per-bank samples reach the shared sink"
        );
        let back = llc.take_telemetry();
        assert!(back.is_some(), "original sink recovered");
        assert!(llc.take_telemetry().is_none(), "fan-out disarmed");
    }

    #[test]
    fn telemetry_disabled_handle_rejected() {
        use vantage_telemetry::Telemetry;
        let mut llc = banked_baseline(2, 128);
        assert!(!llc.set_telemetry(Telemetry::disabled()));
        assert!(llc.take_telemetry().is_none());
    }

    #[test]
    fn batch_matches_one_at_a_time() {
        let mut one = banked_baseline(4, 256);
        let mut batched = banked_baseline(4, 256);
        let reqs: Vec<AccessRequest> = (0..5000u64)
            .map(|i| {
                AccessRequest::read(
                    PartitionId::from_index((i % 2) as usize),
                    LineAddr((i * 37) % 1700),
                )
            })
            .collect();
        let singles: Vec<AccessOutcome> = reqs.iter().map(|&r| one.access(r)).collect();
        let mut outs = Vec::new();
        // Uneven chunking exercises the grouping scratch reuse.
        for chunk in reqs.chunks(777) {
            batched.access_batch(chunk, &mut outs);
        }
        assert_eq!(singles, outs);
        assert_eq!(one.stats_mut().hits, batched.stats_mut().hits);
        assert_eq!(one.stats_mut().misses, batched.stats_mut().misses);
        assert_eq!(one.stats_mut().evictions, batched.stats_mut().evictions);
    }

    #[test]
    fn sharded_views_expose_banks() {
        let mut llc = banked_baseline(4, 256);
        assert_eq!(Sharded::num_banks(&llc), 4);
        let addr = LineAddr(0xABC);
        let b = llc.bank_of(addr);
        assert!(b < 4);
        llc.access(AccessRequest::read(PartitionId::from_index(0), addr));
        assert_eq!(llc.bank(b).stats().total_misses(), 1, "steered to bank");
        assert_eq!(llc.bank_mut(b).num_partitions(), 2);
    }
}
