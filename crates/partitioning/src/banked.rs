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
//!
//! Service schedule: [`Llc::access`] serves one request inline. A window —
//! [`Llc::access_batch`], [`BankedLlc::run_window`] or
//! [`BankedLlc::ingest`] — first routes every request to its bank's run
//! (one growing queue per bank), then a drain hands each non-empty run to
//! its bank's [`Llc::access_batch`] in one call, bank by bank: each bank
//! serves its whole share of the window before the next bank starts. At
//! memory-bound scales this bank-major schedule keeps one bank's metadata
//! hot for long runs instead of a few accesses.
//!
//! Ordering and determinism: routing scans a window in request order and
//! runs only grow at the back, so every bank sees its requests strictly in
//! request order whatever the schedule. Outcomes, statistics, partition
//! sizes and per-bank telemetry are therefore identical whether requests
//! arrive one at a time or in windows of any size; only the interleaving of
//! telemetry records across banks differs. Each bank folds the hit bit of
//! every outcome it serves into a per-bank FNV-1a digest
//! ([`BankedLlc::bank_digests`]), a cheap equivalence check against a
//! reference without buffering outcome streams.
//!
//! Barriers: requests handed to [`BankedLlc::ingest`] sit in their runs
//! until [`BankedLlc::barrier`]; there is no bound, so a caller that ingests
//! holds every request since its last barrier. Every observation or
//! reconfiguration point (target updates, partition lifecycle, stats,
//! telemetry arming, the priority probe) quiesces first — the [`Llc`]
//! methods do so themselves. Checkpoints only cut at barriers:
//! [`vantage_snapshot::Snapshot::save_state`] refuses to serialize queued
//! work.
//!
//! Every window is served on the calling thread. The simulator hands the
//! LLC one request at a time, and a core cannot issue its next LLC request
//! until `l2_latency` cycles after the last, so a lookahead window of
//! mutually independent requests holds at most one request per core — a
//! median of 1 on the 4-core machine and 2–3 on the 32-core one (DESIGN.md
//! §19), too few to pay for handing batches to other threads.

use vantage_cache::hash::mix_bucket;
use vantage_cache::{LineAddr, PartitionId, ShareMode};
use vantage_telemetry::{SharedSink, Telemetry};

use crate::error::{SchemeConfigError, TargetsError};
use crate::llc::{
    AccessOutcome, AccessRequest, LifecycleError, Llc, LlcStats, PartitionObservations,
    PartitionSpec, PrioritySample,
};

/// FNV-1a offset basis: the initial value of every per-bank digest.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a fold step over a `u64` word.
#[inline]
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// One bank's queued run: its requests in request order plus — on the
/// outcome-returning [`Llc::access_batch`] path — the request-order
/// positions their outcomes scatter back to. The buffers are cleared, not
/// freed, after each drain, so a steady-state window reuses them.
#[derive(Default)]
struct Run {
    idxs: Vec<u32>,
    reqs: Vec<AccessRequest>,
}

/// Run-length accounting, sampled once per drained run. `peak_depth` is the
/// longest run any bank has drained (in requests); `mean_depth` averages
/// run lengths over drains. A bank's run holds its share of everything
/// queued since the last barrier.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RingStats {
    /// Longest drained run, in requests.
    pub peak_depth: usize,
    /// Sum of drained run lengths, in requests.
    pub depth_sum: u64,
    /// Number of drained runs.
    pub samples: u64,
}

impl RingStats {
    /// Mean drained run length, in requests (0.0 before any sample).
    pub fn mean_depth(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.samples as f64
        }
    }
}

/// An address-interleaved multi-bank LLC; see the [module docs](self) for
/// its service schedule and barriers.
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
/// use vantage_cache::{LineAddr, SetAssocArray};
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
/// llc.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(0x123)));
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
    /// One queued run per bank.
    runs: Vec<Run>,
    /// Per-bank FNV-1a digests over served outcome hit bits, in per-bank
    /// service order (== per-bank request order).
    digests: Vec<u64>,
    ring_stats: RingStats,
    /// Requests ingested but not yet served.
    pending: usize,
    scratch: Vec<AccessOutcome>,
}

impl BankedLlc {
    /// Assembles a banked LLC from per-bank caches, steering addresses with
    /// a hash keyed by `bank_seed`.
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
            runs: (0..n).map(|_| Run::default()).collect(),
            digests: vec![DIGEST_SEED; n],
            ring_stats: RingStats::default(),
            pending: 0,
            scratch: Vec::new(),
        })
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// The bank serving `addr` (always `< num_banks()`). The mapping is
    /// stable — it depends only on the address and the construction-time
    /// seed, never on access history — which is what makes every schedule
    /// deterministic: the same trace always decomposes into the same
    /// per-bank subtraces.
    #[inline]
    pub fn bank_of(&self, addr: LineAddr) -> usize {
        mix_bucket(addr.0, self.bank_seed, self.banks.len() as u32) as usize
    }

    /// Shared view of bank `i`, as of the last barrier.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_banks()`.
    pub fn bank(&self, i: usize) -> &dyn Llc {
        self.banks[i].as_ref()
    }

    /// Mutable view of bank `i` (e.g. to reset its statistics); quiesces
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_banks()`.
    pub fn bank_mut(&mut self, i: usize) -> &mut dyn Llc {
        self.barrier();
        self.banks[i].as_mut()
    }

    /// Requests ingested but not yet served. Zero means the cache is
    /// quiesced (at a barrier).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Per-bank FNV-1a digests over the hit bit of every outcome served
    /// since construction (or the last [`reset_digests`](Self::reset_digests)),
    /// folded in per-bank request order. A reference produces the same
    /// digests by folding its outcome stream grouped by
    /// [`bank_of`](Self::bank_of).
    pub fn bank_digests(&self) -> &[u64] {
        &self.digests
    }

    /// Resets the per-bank digests to [`DIGEST_SEED`] (e.g. after warmup,
    /// so digests cover only the measured window).
    pub fn reset_digests(&mut self) {
        self.digests.fill(DIGEST_SEED);
    }

    /// Run-length statistics since construction or the last
    /// [`reset_ring_stats`](Self::reset_ring_stats).
    pub fn ring_stats(&self) -> RingStats {
        self.ring_stats
    }

    /// Clears the run-length statistics.
    pub fn reset_ring_stats(&mut self) {
        self.ring_stats = RingStats::default();
    }

    /// Quiesces and returns the cache unchanged. Kept only for the frozen
    /// `benchmark/` package, from the days this type wrapped a separate
    /// serial one; it goes away with the benchmark-side follow-up.
    pub fn into_banked(mut self) -> Self {
        self.barrier();
        self
    }

    /// Routes `reqs` onto the per-bank runs without serving them. They stay
    /// queued — with everything else ingested since the last barrier — until
    /// [`barrier`](Self::barrier) or any other quiescing call serves them.
    ///
    /// The request-order positions of outcomes are *not* retained: outcomes
    /// are folded into the per-bank digests when drained and otherwise
    /// discarded. Use [`Llc::access_batch`] when outcomes are needed.
    pub fn ingest(&mut self, reqs: &[AccessRequest]) {
        self.enqueue(reqs, false);
    }

    /// Quiesces the cache: serves every bank's run, bank-major. This is the
    /// *only* point where queued work is guaranteed served; epoch
    /// repartitioning, checkpoints, stats reads and lifecycle operations all
    /// sit behind it.
    pub fn barrier(&mut self) {
        if self.pending != 0 {
            self.flush(None);
        }
    }

    /// Serves one window of requests and quiesces: the window is routed
    /// onto the per-bank runs and drained bank-major. Outcomes fold into the
    /// per-bank digests; use [`Llc::access_batch`] to get them back.
    ///
    /// # Example
    ///
    /// ```
    /// use vantage_cache::{LineAddr, SetAssocArray};
    /// use vantage_partitioning::{AccessRequest, BankedLlc, BaselineLlc, Llc, PartitionId, RankPolicy};
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
    /// let reqs: Vec<AccessRequest> = (0..1000)
    ///     .map(|i| AccessRequest::read(PartitionId::from_index(0), LineAddr(i)))
    ///     .collect();
    /// llc.run_window(&reqs); // route to per-bank runs, drain bank-major
    /// assert_eq!(llc.pending(), 0, "run_window leaves the cache quiesced");
    /// assert_eq!(llc.bank_digests().len(), 4);
    /// ```
    pub fn run_window(&mut self, reqs: &[AccessRequest]) {
        self.serve_window(reqs, None);
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

    /// Appends `reqs` to their banks' runs in request order; `indexed`
    /// records each request's position for an [`Llc::access_batch`]
    /// scatter. A run is either wholly indexed or wholly not: every
    /// indexed window starts at a barrier and ends with one.
    fn enqueue(&mut self, reqs: &[AccessRequest], indexed: bool) {
        self.pending += reqs.len();
        for (i, &req) in reqs.iter().enumerate() {
            let b = self.bank_of(req.addr);
            let run = &mut self.runs[b];
            if indexed {
                run.idxs.push(i as u32);
            }
            run.reqs.push(req);
        }
    }

    /// Serves every non-empty run with one `access_batch` call on its bank,
    /// bank by bank, folding outcomes into the bank's digest and, with
    /// `out`, scattering them to the run's recorded request-order positions.
    fn flush(&mut self, mut out: Option<&mut [AccessOutcome]>) {
        for (b, run) in self.runs.iter_mut().enumerate() {
            if run.reqs.is_empty() {
                continue;
            }
            let len = run.reqs.len();
            self.ring_stats.peak_depth = self.ring_stats.peak_depth.max(len);
            self.ring_stats.depth_sum += len as u64;
            self.ring_stats.samples += 1;
            self.scratch.clear();
            self.banks[b].access_batch(&run.reqs, &mut self.scratch);
            for o in &self.scratch {
                self.digests[b] = fnv(self.digests[b], o.is_hit() as u64);
            }
            let scattered = if out.is_some() { len } else { 0 };
            debug_assert_eq!(run.idxs.len(), scattered, "run queued for the other drain");
            if let Some(out) = out.as_deref_mut() {
                for (&i, &o) in run.idxs.iter().zip(&self.scratch) {
                    out[i as usize] = o;
                }
            }
            self.pending -= len;
            run.idxs.clear();
            run.reqs.clear();
        }
        debug_assert_eq!(self.pending, 0, "flush left queued work behind");
    }

    /// [`run_window`](Self::run_window), additionally scattering outcomes
    /// into `out` (one slot per request, in request order) when given.
    fn serve_window(&mut self, reqs: &[AccessRequest], out: Option<&mut [AccessOutcome]>) {
        self.barrier();
        self.enqueue(reqs, out.is_some());
        self.flush(out);
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
    /// Serves one request inline, routed once. Quiesces first so the request
    /// observes every previously ingested access in order; with nothing
    /// queued that is one branch, which (with the digest fold) is all a
    /// per-access driver such as `CmpSim` pays for the runs.
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        self.barrier();
        let b = self.bank_of(req.addr);
        let o = self.banks[b].access(req);
        self.digests[b] = fnv(self.digests[b], o.is_hit() as u64);
        o
    }

    /// Serves the batch as one window with scatter indices and hands
    /// outcomes back in request order. Each bank serves its whole share in
    /// one `access_batch` call, bank after bank, so a bank's state stays
    /// warm in the host's cache for the length of its run instead of being
    /// evicted by the other banks' interleaved requests.
    fn access_batch(&mut self, reqs: &[AccessRequest], out: &mut Vec<AccessOutcome>) {
        let start = out.len();
        out.resize(start + reqs.len(), AccessOutcome::Miss);
        self.serve_window(reqs, Some(&mut out[start..]));
    }

    fn num_partitions(&self) -> usize {
        self.partitions
    }

    fn capacity(&self) -> usize {
        self.banks.iter().map(|b| b.capacity()).sum()
    }

    /// Quiesces, then deals each target across the banks — `t / n` lines
    /// each, the remainders round-robin so no bank overfills while the
    /// whole fits — checking every bank's share before any bank moves.
    /// Repartitioning is an epoch barrier: every queued access lands under
    /// the old targets first.
    fn set_targets(&mut self, targets: &[u64]) -> Result<(), TargetsError> {
        self.barrier();
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

    /// The size visible at the last barrier; queued accesses have not
    /// landed yet. Observation paths that must be exact (`observations`,
    /// `stats_mut`) quiesce automatically.
    fn partition_size(&self, part: PartitionId) -> u64 {
        self.banks.iter().map(|b| b.partition_size(part)).sum()
    }

    /// Quiesces, then creates the partition in every bank, splitting the
    /// requested target evenly (the remainder to the lowest banks; each
    /// bank grants only what its spare capacity allows). Banks move in
    /// lockstep — construction enforces equal populations and every
    /// lifecycle call fans out — so all banks hand back the same slot.
    fn create_partition(&mut self, spec: PartitionSpec) -> Result<PartitionId, LifecycleError> {
        self.barrier();
        let n = self.banks.len() as u64;
        let mut id = None;
        for (b, bank) in self.banks.iter_mut().enumerate() {
            let share = spec.target / n + u64::from((b as u64) < spec.target % n);
            // Bank 0 screens the request (Unsupported/Exhausted fire before
            // any state moves); later banks cannot disagree with it.
            let got = bank.create_partition(PartitionSpec::with_target(share))?;
            assert!(
                id.replace(got).is_none_or(|prev| prev == got),
                "banks diverged on partition slot assignment"
            );
        }
        self.partitions = self.banks[0].num_partitions();
        self.agg.resize(self.partitions);
        Ok(id.expect("at least one bank"))
    }

    /// Quiesces, then destroys the partition in every bank; each bank
    /// drains it through its own demotion machinery.
    fn destroy_partition(&mut self, part: PartitionId) -> Result<(), LifecycleError> {
        self.barrier();
        for bank in &mut self.banks {
            bank.destroy_partition(part)?;
        }
        Ok(())
    }

    /// Quiesces, then sums each bank's snapshot, so bank-local dynamics
    /// metering (e.g. Vantage churn counters) survives sharding. Lifecycle
    /// lanes come from bank 0 (banks move in lockstep, so the deltas are
    /// identical; the other banks' queues are drained and discarded).
    fn observations(&mut self) -> PartitionObservations {
        self.barrier();
        let mut obs = PartitionObservations::new(self.partitions);
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

    /// Quiesces (queued accesses were issued under the old mode and must
    /// land under it), then applies the mode to every bank. Banks are
    /// homogeneous (same scheme, same config), so they accept or reject
    /// uniformly and never disagree on sharing semantics.
    fn set_share_mode(&mut self, mode: ShareMode) -> bool {
        self.barrier();
        let mut ok = true;
        for bank in &mut self.banks {
            ok &= bank.set_share_mode(mode);
        }
        ok
    }

    fn share_mode(&self) -> ShareMode {
        self.banks[0].share_mode()
    }

    /// The aggregate as of the last `stats_mut`/`take_stats`: `stats()` is
    /// a cheap borrow by contract, so only the mutable paths quiesce and
    /// re-sum the banks.
    fn stats(&self) -> &LlcStats {
        &self.agg
    }

    fn stats_mut(&mut self) -> &mut LlcStats {
        self.barrier();
        self.refresh_stats();
        &mut self.agg
    }

    /// Takes every bank's interval too: swapping out only the lazily
    /// summed aggregate would let the next refresh re-sum the same counts.
    fn take_stats(&mut self) -> LlcStats {
        self.barrier();
        self.refresh_stats();
        for bank in &mut self.banks {
            bank.take_stats();
        }
        std::mem::replace(&mut self.agg, LlcStats::new(self.partitions))
    }

    /// Quiesces, then fans the handle's sink out to every bank through a
    /// [`SharedSink`], tagging each bank's records. Returns `false`
    /// (leaving telemetry uninstalled) if any bank rejects telemetry or the
    /// handle is disabled.
    fn set_telemetry(&mut self, telemetry: Telemetry) -> bool {
        self.barrier();
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

    /// Quiesces, disarms every bank and returns a handle wrapping the
    /// original sink.
    fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.barrier();
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

    /// Quiesces, then enables the probe in every bank.
    fn enable_priority_probe(&mut self) {
        self.barrier();
        for bank in &mut self.banks {
            bank.enable_priority_probe();
        }
    }

    /// Quiesces, then concatenates every bank's samples in bank order. Each
    /// bank numbers accesses by its own counter, so a sample's access
    /// number is per-bank, not machine-wide.
    fn drain_priority_samples(&mut self) -> Vec<PrioritySample> {
        self.barrier();
        self.banks
            .iter_mut()
            .flat_map(|bank| bank.drain_priority_samples())
            .collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl vantage_snapshot::Snapshot for BankedLlc {
    /// One length-prefixed blob per bank: a bank's decode errors stay
    /// contained to its own payload, and banks restore in order. The runs
    /// hold no simulation state once drained, so snapshots interchange
    /// across schedules.
    ///
    /// Checkpoints only cut at barriers: serializing with queued work would
    /// bake the runs' *absence* into the snapshot. `save_state`
    /// takes `&self`, so it cannot quiesce for you — callers drain first
    /// (the simulator's checkpoint path barriers at the epoch boundary).
    ///
    /// # Panics
    ///
    /// Panics if requests are ingested but not yet served.
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        assert_eq!(
            self.pending, 0,
            "checkpoint cut mid-window: barrier() before save_state"
        );
        enc.put_usize(self.banks.len());
        for bank in &self.banks {
            let mut sub = vantage_snapshot::Encoder::new();
            bank.save_state(&mut sub);
            enc.put_bytes(&sub.into_bytes());
        }
    }

    /// Queued pre-restore work is meaningless against the restored state:
    /// it is dropped, and the restored cache starts quiesced with fresh
    /// digests.
    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        for run in &mut self.runs {
            run.idxs.clear();
            run.reqs.clear();
        }
        self.pending = 0;
        self.reset_digests();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{BaselineLlc, RankPolicy};
    use crate::way_part::WayPartLlc;
    use vantage_cache::ZArray;
    use vantage_snapshot::{Decoder, Encoder, Snapshot};

    fn banks(n: usize, lines_per_bank: usize) -> Vec<Box<dyn Llc>> {
        (0..n as u64)
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
            .collect()
    }

    fn banked_baseline(n: usize, lines_per_bank: usize) -> BankedLlc {
        BankedLlc::try_new(banks(n, lines_per_bank), 99).expect("valid bank set")
    }

    fn trace(n: u64) -> Vec<AccessRequest> {
        (0..n)
            .map(|i| {
                AccessRequest::read(
                    PartitionId::from_index((i % 2) as usize),
                    LineAddr((i * 2654435761) % 3000),
                )
            })
            .collect()
    }

    /// The per-access reference for digest checks: one `access` per
    /// request, its outcome stream folded grouped by bank.
    fn serial_bank_digests(n: usize, reqs: &[AccessRequest]) -> (Vec<u64>, Vec<u64>) {
        let mut serial = BankedLlc::try_new(banks(n, 512), 7).expect("valid bank set");
        let mut digests = vec![DIGEST_SEED; n];
        for &r in reqs {
            let b = serial.bank_of(r.addr);
            let o = serial.access(r);
            digests[b] = fnv(digests[b], o.is_hit() as u64);
        }
        assert_eq!(serial.bank_digests(), &digests[..], "access folds digests");
        (digests, observed_stats(&mut serial))
    }

    fn observed_stats(llc: &mut dyn Llc) -> Vec<u64> {
        let s = llc.stats_mut();
        let mut v: Vec<u64> = s.hits.to_vec();
        v.extend(s.misses.iter().copied());
        v.push(s.evictions);
        v
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
        // Uneven chunking exercises the run-buffer reuse.
        for chunk in reqs.chunks(777) {
            batched.access_batch(chunk, &mut outs);
        }
        assert_eq!(singles, outs);
        assert_eq!(one.stats_mut().hits, batched.stats_mut().hits);
        assert_eq!(one.stats_mut().misses, batched.stats_mut().misses);
        assert_eq!(one.stats_mut().evictions, batched.stats_mut().evictions);
        assert_eq!(one.bank_digests(), batched.bank_digests());
    }

    #[test]
    fn sharded_views_expose_banks() {
        let mut llc = banked_baseline(4, 256);
        assert_eq!(llc.num_banks(), 4);
        let addr = LineAddr(0xABC);
        let b = llc.bank_of(addr);
        assert!(b < 4);
        llc.access(AccessRequest::read(PartitionId::from_index(0), addr));
        assert_eq!(llc.bank(b).stats().total_misses(), 1, "steered to bank");
        assert_eq!(llc.bank_mut(b).num_partitions(), 2);
    }

    /// The machine's statistics are the sum of its banks': hits and misses
    /// per partition, and evictions.
    #[test]
    fn stats_sum_the_banks() {
        let mut llc = banked_baseline(4, 256);
        for chunk in trace(20_000).chunks(777) {
            llc.access_batch(chunk, &mut Vec::new());
        }
        let mut sum = LlcStats::new(2);
        for b in 0..llc.num_banks() {
            let s = llc.bank(b).stats();
            assert!(s.evictions > 0, "bank {b} never evicted");
            for p in 0..2 {
                sum.hits[p] += s.hits[p];
                sum.misses[p] += s.misses[p];
            }
            sum.evictions += s.evictions;
        }
        let s = llc.stats_mut();
        assert_eq!((&s.hits, &s.misses), (&sum.hits, &sum.misses));
        assert_eq!(s.evictions, sum.evictions);
    }

    #[test]
    fn access_batch_matches_serial_bit_for_bit() {
        let reqs = trace(20_000);
        let mut serial = BankedLlc::try_new(banks(4, 512), 7).expect("valid bank set");
        let serial_out: Vec<AccessOutcome> = reqs.iter().map(|&r| serial.access(r)).collect();
        for chunk in [777, 100] {
            let mut pipe = BankedLlc::try_new(banks(4, 512), 7).expect("valid bank set");
            let mut out = Vec::new();
            for chunk in reqs.chunks(chunk) {
                pipe.access_batch(chunk, &mut out);
            }
            assert_eq!(serial_out, out, "outcomes diverge in chunks of {chunk}");
            assert_eq!(observed_stats(&mut serial), observed_stats(&mut pipe));
            for p in (0..2).map(PartitionId::from_index) {
                assert_eq!(serial.partition_size(p), pipe.partition_size(p));
            }
            assert_eq!(serial.bank_digests(), pipe.bank_digests());
            assert_eq!(pipe.pending(), 0);
        }
    }

    #[test]
    fn windowed_digests_match_serial() {
        let reqs = trace(30_000);
        let (want_digests, want_stats) = serial_bank_digests(4, &reqs);
        for size in [7001, 300] {
            let mut pipe = BankedLlc::try_new(banks(4, 512), 7).expect("valid bank set");
            for window in reqs.chunks(size) {
                pipe.run_window(window);
                assert_eq!(pipe.pending(), 0, "run_window quiesces");
            }
            assert_eq!(pipe.bank_digests(), &want_digests[..], "windows of {size}");
            assert_eq!(observed_stats(&mut pipe), want_stats, "windows of {size}");
        }
    }

    #[test]
    fn several_ingests_then_one_barrier_match_serial() {
        let reqs = trace(30_000);
        let (want_digests, want_stats) = serial_bank_digests(4, &reqs);
        let mut pipe = BankedLlc::try_new(banks(4, 512), 7).expect("valid bank set");
        for chunk in reqs.chunks(1234) {
            pipe.ingest(chunk);
        }
        assert_eq!(pipe.pending(), reqs.len(), "ingest holds everything");
        pipe.barrier();
        assert_eq!(pipe.pending(), 0);
        assert_eq!(pipe.bank_digests(), &want_digests[..]);
        assert_eq!(observed_stats(&mut pipe), want_stats);
        // One barrier drains one run per bank, each holding that bank's
        // whole share of the ingested stream.
        let mut share = [0usize; 4];
        for r in &reqs {
            share[pipe.bank_of(r.addr)] += 1;
        }
        let rs = pipe.ring_stats();
        assert_eq!(rs.samples, 4);
        assert_eq!(rs.peak_depth, *share.iter().max().unwrap());
        assert_eq!(rs.depth_sum, reqs.len() as u64);
        assert_eq!(rs.mean_depth(), reqs.len() as f64 / 4.0);
    }

    #[test]
    fn ingest_then_access_batch_returns_only_its_own_window() {
        let reqs = trace(6000);
        let (queued, window) = reqs.split_at(4000);
        let mut serial = BankedLlc::try_new(banks(4, 512), 7).expect("valid bank set");
        let serial_out: Vec<AccessOutcome> = reqs.iter().map(|&r| serial.access(r)).collect();
        let mut pipe = BankedLlc::try_new(banks(4, 512), 7).expect("valid bank set");
        pipe.ingest(queued);
        let mut out = vec![AccessOutcome::Hit; 3];
        pipe.access_batch(window, &mut out);
        assert_eq!(&out[..3], &[AccessOutcome::Hit; 3], "earlier outcomes kept");
        assert_eq!(&out[3..], &serial_out[4000..], "queued work landed first");
        assert_eq!(pipe.pending(), 0);
        assert_eq!(pipe.bank_digests(), serial.bank_digests());
        assert_eq!(observed_stats(&mut pipe), observed_stats(&mut serial));
    }

    #[test]
    fn empty_and_single_request_windows() {
        let mut pipe = BankedLlc::try_new(banks(2, 256), 3).expect("valid bank set");
        pipe.run_window(&[]);
        pipe.barrier();
        assert_eq!(pipe.pending(), 0);
        let mut out = Vec::new();
        pipe.access_batch(&[], &mut out);
        assert!(out.is_empty());
        let req = AccessRequest::read(PartitionId::from_index(0), LineAddr(9));
        pipe.access_batch(&[req], &mut out);
        assert_eq!(out, vec![AccessOutcome::Miss]);
        assert_eq!(pipe.access(req), AccessOutcome::Hit);
    }

    #[test]
    fn single_access_observes_queued_work() {
        let mut pipe = BankedLlc::try_new(banks(2, 256), 3).expect("valid bank set");
        let addr = LineAddr(0x77);
        pipe.ingest(&[AccessRequest::read(PartitionId::from_index(0), addr)]);
        assert!(pipe.pending() > 0);
        // The inline access must see the queued insertion of the same line.
        assert_eq!(
            pipe.access(AccessRequest::read(PartitionId::from_index(0), addr)),
            AccessOutcome::Hit
        );
    }

    #[test]
    fn lifecycle_and_stats_quiesce_first() {
        let mut pipe = BankedLlc::try_new(banks(2, 256), 3).expect("valid bank set");
        let reqs = trace(1000);
        pipe.ingest(&reqs);
        assert!(pipe.pending() > 0);
        let s = pipe.stats_mut();
        assert_eq!(s.total_hits() + s.total_misses(), 1000, "stats_mut drained");
        pipe.ingest(&reqs);
        pipe.set_targets(&[300, 212]).expect("targets fit");
        assert_eq!(pipe.pending(), 0, "set_targets drained");
        // Each taken interval holds exactly its own requests, queued or not.
        let s = pipe.take_stats();
        assert_eq!(s.total_hits() + s.total_misses(), 2000);
        pipe.ingest(&reqs[..400]);
        assert!(pipe.pending() > 0);
        let s = pipe.take_stats();
        assert_eq!(s.total_hits() + s.total_misses(), 400, "take_stats drained");
    }

    #[test]
    #[should_panic(expected = "barrier() before save_state")]
    fn snapshot_refuses_to_cut_mid_window() {
        let mut pipe = BankedLlc::try_new(banks(2, 256), 3).expect("valid bank set");
        pipe.ingest(&trace(100));
        let mut enc = Encoder::new();
        pipe.save_state(&mut enc);
    }

    #[test]
    fn snapshot_round_trips_at_a_barrier() {
        let reqs = trace(10_000);
        let mut pipe = BankedLlc::try_new(banks(2, 256), 3).expect("valid bank set");
        pipe.run_window(&reqs[..6000]);
        let mut enc = Encoder::new();
        pipe.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let mut restored = BankedLlc::try_new(banks(2, 256), 3).expect("valid bank set");
        // Queued work in the target must not leak into the restored run.
        restored.ingest(&reqs[..100]);
        let mut dec = Decoder::new(&bytes, "banked llc");
        restored.load_state(&mut dec).expect("restore succeeds");
        assert_eq!(restored.pending(), 0);

        pipe.reset_digests();
        restored.reset_digests();
        pipe.run_window(&reqs[6000..]);
        restored.run_window(&reqs[6000..]);
        assert_eq!(pipe.bank_digests(), restored.bank_digests());
        assert_eq!(observed_stats(&mut pipe), observed_stats(&mut restored));
    }

    #[test]
    fn surface_delegates() {
        let mut pipe = BankedLlc::try_new(banks(4, 256), 9).expect("valid bank set");
        assert_eq!(pipe.capacity(), 1024);
        assert_eq!(pipe.num_partitions(), 2);
        assert!(pipe.name().starts_with("4x"));
        let addr = LineAddr(0x55);
        let b = pipe.bank_of(addr);
        pipe.ingest(&[AccessRequest::read(PartitionId::from_index(0), addr)]);
        assert_eq!(
            pipe.bank_mut(b).stats().total_misses(),
            1,
            "bank_mut drained"
        );
        let pipe = pipe.into_banked();
        assert_eq!(pipe.pending(), 0);
        assert_eq!(pipe.capacity(), 1024);
    }
}
