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
//! [`BankedLlc::ingest`] — decouples *production* (routing requests by bank
//! hash) from *consumption* (serving a bank's requests): requests
//! accumulate in per-bank rings of recycled batch buffers, and a drain
//! serves each bank's entire queued run contiguously before touching the
//! next bank. At memory-bound scales the bank-major schedule keeps one
//! bank's metadata hot for long runs instead of a few accesses.
//!
//! Ordering and determinism: production scans a window in request order,
//! rings are FIFO, and a bank is only ever served by one consumer — so every
//! bank sees its requests strictly in request order whatever the schedule.
//! Outcomes, statistics, partition sizes and per-bank telemetry are
//! therefore identical whether requests arrive one at a time or in windows
//! of any size, at any `jobs` count; only the interleaving of telemetry
//! records across banks differs. Each bank folds the hit bit of every
//! outcome it serves into a per-bank FNV-1a digest
//! ([`BankedLlc::bank_digests`]), a cheap equivalence check against a
//! reference without buffering outcome streams.
//!
//! Barriers: requests handed to [`BankedLlc::ingest`] may sit queued until
//! [`BankedLlc::barrier`]. Every observation or reconfiguration point
//! (target updates, partition lifecycle, stats, telemetry arming) quiesces
//! first — the [`Llc`] methods do so themselves. Checkpoints only cut at
//! barriers: [`vantage_snapshot::Snapshot::save_state`] refuses to
//! serialize queued work.
//!
//! This is also the workspace's one worker pool. With `jobs > 1`, a window
//! of at least [`BankedLlc::PARALLEL_THRESHOLD`] requests handed over
//! through `run_window` or `access_batch` streams its batches through
//! bounded SPSC queues to scoped worker threads (one owner per bank,
//! round-robin over workers), so consumption overlaps production; smaller
//! windows, and every window at `jobs <= 1`, buffer in the rings and drain
//! inline. Both paths stage through the same routine and serve identical
//! per-bank sequences. Workers are spawned per window with
//! [`std::thread::scope`]: windows in the thousands amortize the spawn
//! cost, and no thread outlives the call.

use std::collections::VecDeque;

use vantage_cache::hash::mix_bucket;
use vantage_cache::{LineAddr, PartitionId, ShareMode};
use vantage_telemetry::{SharedSink, Telemetry};

use crate::error::{SchemeConfigError, TargetsError};
use crate::llc::{
    AccessOutcome, AccessRequest, LifecycleError, Llc, LlcStats, PartitionObservations,
    PartitionSpec,
};
use crate::spsc;

/// FNV-1a offset basis: the initial value of every per-bank digest.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a fold step over a `u64` word.
#[inline]
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// One ring slot: a run of same-bank requests plus — on the
/// outcome-returning [`Llc::access_batch`] path — the request-order
/// positions their outcomes scatter back to. Buffers are recycled through a
/// spare pool rather than reallocated, so a steady-state window reuses the
/// same allocations every time.
#[derive(Default)]
struct WorkBatch {
    idxs: Vec<u32>,
    reqs: Vec<AccessRequest>,
}

/// Ring-occupancy accounting, sampled every time a batch is enqueued on a
/// bank ring. `peak_depth` is the deepest any ring has been (in batches);
/// `mean_depth` averages the depth over enqueue events. Deep rings mean
/// production outruns consumption between barriers; a peak at the
/// configured ring capacity means inline backpressure drains fired.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RingStats {
    /// Deepest observed ring depth, in batches.
    pub peak_depth: usize,
    /// Sum of observed depths across enqueue samples.
    pub depth_sum: u64,
    /// Number of enqueue samples.
    pub samples: u64,
}

impl RingStats {
    /// Mean ring depth at enqueue, in batches (0.0 before any sample).
    pub fn mean_depth(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.samples as f64
        }
    }
}

/// An address-interleaved multi-bank LLC; see the [module docs](self) for
/// its service schedule, barriers and worker pool.
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
/// let mut llc = BankedLlc::try_new(banks, 7, 1).expect("valid bank set");
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
    jobs: usize,
    /// Requests per [`WorkBatch`]: the granularity of ring slots and of the
    /// SPSC stream in parallel windows.
    batch: usize,
    /// Ring depth (in batches) at which an inline backpressure drain serves
    /// the whole ring for that bank.
    ring_cap: usize,
    /// One open (still-filling) batch per bank.
    staging: Vec<WorkBatch>,
    /// Closed batches queued per bank, oldest first.
    rings: Vec<VecDeque<WorkBatch>>,
    /// Recycled batch buffers: a steady-state window is served out of the
    /// same allocations as the last one.
    spares: Vec<WorkBatch>,
    /// Per-bank FNV-1a digests over served outcome hit bits, in per-bank
    /// service order (== per-bank request order).
    digests: Vec<u64>,
    ring_stats: RingStats,
    /// Requests ingested but not yet served.
    pending: usize,
    scratch: Vec<AccessOutcome>,
}

impl BankedLlc {
    /// Default requests per ring slot.
    pub const DEFAULT_BATCH: usize = 4096;

    /// Default ring depth (batches per bank) before inline backpressure.
    pub const DEFAULT_RING_CAP: usize = 64;

    /// In-flight batches per worker queue in parallel windows.
    const QUEUE_CAP: usize = 8;

    /// Windows smaller than this are served inline even with `jobs > 1` —
    /// the scoped-pool setup cost would dominate.
    pub const PARALLEL_THRESHOLD: usize = 256;

    /// Assembles a banked LLC from per-bank caches; `jobs` is the consumer
    /// thread count for windows (clamped to the bank count, 0 treated as 1;
    /// 1 means inline consumption).
    ///
    /// # Errors
    ///
    /// Returns [`SchemeConfigError::NoBanks`] for an empty bank list and
    /// [`SchemeConfigError::BankPartitionMismatch`] when the banks disagree
    /// on partition count.
    pub fn try_new(
        banks: Vec<Box<dyn Llc>>,
        bank_seed: u64,
        jobs: usize,
    ) -> Result<Self, SchemeConfigError> {
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
            jobs: jobs.clamp(1, n),
            batch: Self::DEFAULT_BATCH,
            ring_cap: Self::DEFAULT_RING_CAP,
            staging: (0..n).map(|_| WorkBatch::default()).collect(),
            rings: (0..n).map(|_| VecDeque::new()).collect(),
            spares: Vec::new(),
            digests: vec![DIGEST_SEED; n],
            ring_stats: RingStats::default(),
            pending: 0,
            scratch: Vec::new(),
        })
    }

    /// Sets the ring-slot batch size (0 restores the default).
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch = if batch == 0 {
            Self::DEFAULT_BATCH
        } else {
            batch
        };
        self
    }

    /// Sets the per-bank ring capacity in batches (0 restores the default).
    pub fn with_ring_capacity(mut self, cap: usize) -> Self {
        self.ring_cap = if cap == 0 {
            Self::DEFAULT_RING_CAP
        } else {
            cap
        };
        self
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

    /// The configured consumer thread count.
    pub fn bank_jobs(&self) -> usize {
        self.jobs
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

    /// Ring-occupancy statistics since construction or the last
    /// [`reset_ring_stats`](Self::reset_ring_stats).
    pub fn ring_stats(&self) -> RingStats {
        self.ring_stats
    }

    /// Clears the ring-occupancy statistics.
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

    /// Shards `reqs` into the per-bank rings without serving them (except
    /// for backpressure drains). Call [`barrier`](Self::barrier) to flush.
    ///
    /// The request-order positions of outcomes are *not* retained: outcomes
    /// are folded into the per-bank digests when drained and otherwise
    /// discarded. Use [`Llc::access_batch`] when outcomes are needed.
    pub fn ingest(&mut self, reqs: &[AccessRequest]) {
        self.enqueue(reqs, None);
    }

    /// Quiesces the cache: closes every staging batch and serves every
    /// ring, bank-major. This is the *only* point where queued work is
    /// guaranteed served; epoch repartitioning, checkpoints, stats reads
    /// and lifecycle operations all sit behind it.
    pub fn barrier(&mut self) {
        if self.pending != 0 {
            self.flush(None);
        }
    }

    /// Serves one window of requests and quiesces: with `jobs <= 1` the
    /// window is sharded into the rings and drained bank-major inline; with
    /// `jobs > 1` production (sharding, on the calling thread) overlaps
    /// consumption (scoped workers owning banks round-robin, fed over
    /// bounded SPSC queues). Outcomes fold into the per-bank digests; use
    /// [`Llc::access_batch`] to get them back.
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
    /// let mut llc = BankedLlc::try_new(banks, 7, 1).expect("valid bank set");
    /// let reqs: Vec<AccessRequest> = (0..1000)
    ///     .map(|i| AccessRequest::read(PartitionId::from_index(0), LineAddr(i)))
    ///     .collect();
    /// llc.run_window(&reqs); // shard into rings, drain bank-major
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

    /// Closes bank `b`'s open batch onto its ring, sampling occupancy, and
    /// fires an inline backpressure drain when the ring is full. A no-op
    /// while the open batch is empty.
    fn close_staging(&mut self, b: usize, out: Option<&mut [AccessOutcome]>) {
        if self.staging[b].reqs.is_empty() {
            return;
        }
        let full = take_open(&mut self.staging, &mut self.spares, b);
        self.rings[b].push_back(full);
        let depth = self.rings[b].len();
        self.ring_stats.peak_depth = self.ring_stats.peak_depth.max(depth);
        self.ring_stats.depth_sum += depth as u64;
        self.ring_stats.samples += 1;
        if depth >= self.ring_cap {
            // Production outran this bank's ring: serve its whole queued
            // run now. Still one long bank-major run, just cut earlier.
            self.drain_bank(b, out);
        }
    }

    /// Stages `reqs` (see [`stage`]) and closes every batch that fills onto
    /// its bank's ring. `out` is the request-order outcome slice of an
    /// [`Llc::access_batch`] call: with it, batches record scatter indices
    /// and any backpressure drain scatters into it.
    fn enqueue(&mut self, reqs: &[AccessRequest], mut out: Option<&mut [AccessOutcome]>) {
        let (seed, batch, scatter) = (self.bank_seed, self.batch, out.is_some());
        self.pending += reqs.len();
        let mut next = 0;
        while let Some(b) = stage(&mut self.staging, seed, batch, reqs, &mut next, scatter) {
            self.close_staging(b, out.as_deref_mut());
        }
    }

    /// Drains every queued batch for bank `b` — one contiguous bank-major
    /// run — folding outcomes into the bank's digest and, with `out`,
    /// scattering them to each batch's recorded request-order positions.
    fn drain_bank(&mut self, b: usize, mut out: Option<&mut [AccessOutcome]>) {
        while let Some(mut wb) = self.rings[b].pop_front() {
            let bank = self.banks[b].as_mut();
            serve(bank, &wb.reqs, &mut self.scratch, &mut self.digests[b]);
            let scattered = if out.is_some() { wb.reqs.len() } else { 0 };
            debug_assert_eq!(wb.idxs.len(), scattered, "batch staged for the other drain");
            if let Some(out) = out.as_deref_mut() {
                for (&i, &o) in wb.idxs.iter().zip(&self.scratch) {
                    out[i as usize] = o;
                }
            }
            self.pending -= wb.reqs.len();
            wb.idxs.clear();
            wb.reqs.clear();
            self.spares.push(wb);
        }
    }

    /// Closes every open batch and serves every ring, bank-major.
    fn flush(&mut self, mut out: Option<&mut [AccessOutcome]>) {
        for b in 0..self.rings.len() {
            self.close_staging(b, out.as_deref_mut());
        }
        for b in 0..self.rings.len() {
            self.drain_bank(b, out.as_deref_mut());
        }
        debug_assert_eq!(self.pending, 0, "flush left queued work behind");
    }

    /// [`run_window`](Self::run_window), additionally scattering outcomes
    /// into `out` (one slot per request, in request order) when given.
    fn serve_window(&mut self, reqs: &[AccessRequest], mut out: Option<&mut [AccessOutcome]>) {
        self.barrier();
        if self.jobs > 1 && reqs.len() >= Self::PARALLEL_THRESHOLD {
            self.run_parallel(reqs, out);
        } else {
            self.enqueue(reqs, out.as_deref_mut());
            self.flush(out);
        }
    }

    /// The overlapped producer/consumer window: shard on this thread,
    /// stream bounded batches to `jobs` workers (worker `j` owns every bank
    /// `b` with `b % jobs == j`), fold digests bank-FIFO in the workers.
    /// With `out`, outcomes also scatter back to request order.
    fn run_parallel(&mut self, reqs: &[AccessRequest], mut out: Option<&mut [AccessOutcome]>) {
        debug_assert_eq!(self.pending, 0, "parallel window entered un-quiesced");
        let Self {
            banks,
            staging,
            spares,
            digests,
            jobs,
            batch,
            bank_seed,
            ..
        } = self;
        let (jobs, batch, seed, scatter) = (*jobs, *batch, *bank_seed, out.is_some());

        // Round-robin banks over workers, each bank travelling with its
        // digest: bank `b` is slot `b / jobs` of worker `b % jobs`. Disjoint
        // &mut borrows, checked by iter_mut.
        let mut worker_banks: Vec<Vec<OwnedBank<'_>>> = (0..jobs).map(|_| Vec::new()).collect();
        for (b, owned) in banks.iter_mut().zip(digests.iter_mut()).enumerate() {
            worker_banks[b % jobs].push(owned);
        }

        std::thread::scope(|s| {
            let mut senders = Vec::with_capacity(jobs);
            let mut handles = Vec::with_capacity(jobs);
            for my_banks in worker_banks {
                let (tx, rx) = spsc::channel::<(usize, WorkBatch)>(Self::QUEUE_CAP);
                senders.push(tx);
                handles.push(s.spawn(move || consumer_loop(my_banks, &rx)));
            }

            // Produce: a bank's batch ships to its owning worker the moment
            // it fills, the remainders at the end. Ordered scan + FIFO queue
            // + single owner per bank preserves per-bank request order
            // end-to-end. A failed send means the worker died; the join
            // below reports it.
            let mut next = 0;
            while let Some(b) = stage(staging, seed, batch, reqs, &mut next, scatter) {
                let _ = senders[b % jobs].send((b / jobs, take_open(staging, spares, b)));
            }
            for b in 0..staging.len() {
                if !staging[b].reqs.is_empty() {
                    let _ = senders[b % jobs].send((b / jobs, take_open(staging, spares, b)));
                }
            }
            drop(senders); // EOF: workers drain and return

            for h in handles {
                // A worker panic (a bank's scheme panicked mid-access)
                // propagates rather than silently losing outcomes.
                let pairs = h.join().expect("bank consumer panicked");
                if let Some(out) = out.as_deref_mut() {
                    for (i, o) in pairs {
                        out[i as usize] = o;
                    }
                }
            }
        });
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

/// The one staging routine, shared by `ingest`, the inline `access_batch`
/// and the parallel producer: routes `reqs[*next..]` to their banks' open
/// batches in request order — recording each request's position when
/// `scatter` is set — until some bank's batch holds `batch` requests, and
/// returns that bank so the caller can hand the batch on (to a ring or a
/// worker). `None` means the whole window is staged.
fn stage(
    open: &mut [WorkBatch],
    seed: u64,
    batch: usize,
    reqs: &[AccessRequest],
    next: &mut usize,
    scatter: bool,
) -> Option<usize> {
    let nbanks = open.len() as u32;
    for (i, &req) in reqs.iter().enumerate().skip(*next) {
        let b = mix_bucket(req.addr.0, seed, nbanks) as usize;
        let wb = &mut open[b];
        if scatter {
            wb.idxs.push(i as u32);
        }
        wb.reqs.push(req);
        if wb.reqs.len() >= batch {
            *next = i + 1;
            return Some(b);
        }
    }
    *next = reqs.len();
    None
}

/// Swaps bank `b`'s open batch for a recycled empty one and returns it.
fn take_open(open: &mut [WorkBatch], spares: &mut Vec<WorkBatch>, b: usize) -> WorkBatch {
    std::mem::replace(&mut open[b], spares.pop().unwrap_or_default())
}

/// Serves one batch on its bank, leaving the outcomes in `scratch` and
/// folding their hit bits into the bank's digest.
fn serve(
    bank: &mut dyn Llc,
    reqs: &[AccessRequest],
    scratch: &mut Vec<AccessOutcome>,
    digest: &mut u64,
) {
    scratch.clear();
    bank.access_batch(reqs, scratch);
    for o in scratch.iter() {
        *digest = fnv(*digest, o.is_hit() as u64);
    }
}

/// A consumer-owned bank and its running outcome digest.
type OwnedBank<'a> = (&'a mut Box<dyn Llc>, &'a mut u64);

/// Serves `(slot, batch)` work for one consumer's banks until its queue
/// signals EOF. Returns the scatter pairs (empty unless the producer
/// recorded indices).
fn consumer_loop(
    mut my_banks: Vec<OwnedBank<'_>>,
    rx: &spsc::Receiver<(usize, WorkBatch)>,
) -> Vec<(u32, AccessOutcome)> {
    let mut pairs = Vec::new();
    let mut scratch = Vec::new();
    while let Some((slot, wb)) = rx.recv() {
        let (bank, digest) = &mut my_banks[slot];
        serve(bank.as_mut(), &wb.reqs, &mut scratch, digest);
        pairs.extend(wb.idxs.iter().copied().zip(scratch.iter().copied()));
    }
    pairs
}

impl Llc for BankedLlc {
    /// Serves one request inline, routed once. Quiesces first so the request
    /// observes every previously ingested access in order; with nothing
    /// queued that is one branch, which (with the digest fold) is all a
    /// per-access driver such as `CmpSim` pays for the rings.
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        self.barrier();
        let b = self.bank_of(req.addr);
        let o = self.banks[b].access(req);
        self.digests[b] = fnv(self.digests[b], o.is_hit() as u64);
        o
    }

    /// Serves the batch as one window with scatter indices and hands
    /// outcomes back in request order. Each bank's share reaches its own
    /// `access_batch` in runs of up to the ring-slot batch size, so
    /// per-bank batch specializations see long runs instead of interleaved
    /// singletons — e.g. Vantage's prefetch pipeline, which a bank runs only
    /// when its own footprint is too large for the host's cache (64K Z4
    /// frames and up; smaller banks serve the run as a plain loop).
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

    fn name(&self) -> &str {
        &self.name
    }
}

impl vantage_snapshot::Snapshot for BankedLlc {
    /// One length-prefixed blob per bank: a bank's decode errors stay
    /// contained to its own payload, and banks restore in order. The rings
    /// and the worker pool hold no simulation state once drained, so
    /// snapshots interchange across job counts and schedules.
    ///
    /// Checkpoints only cut at barriers: serializing with queued work would
    /// bake the ring contents' *absence* into the snapshot. `save_state`
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
        for (open, ring) in self.staging.iter_mut().zip(&mut self.rings) {
            open.idxs.clear();
            open.reqs.clear();
            ring.clear();
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
        BankedLlc::try_new(banks(n, lines_per_bank), 99, 1).expect("valid bank set")
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
        let mut serial = BankedLlc::try_new(banks(n, 512), 7, 1).expect("valid bank set");
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
        let mut llc = BankedLlc::try_new(banks, 1, 1).expect("valid bank set");
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
            BankedLlc::try_new(Vec::new(), 0, 1).err(),
            Some(SchemeConfigError::NoBanks)
        );
        let banks: Vec<Box<dyn Llc>> = vec![
            Box::new(WayPartLlc::try_new(256, 4, 2, 0).expect("valid way-partition geometry")),
            Box::new(WayPartLlc::try_new(256, 4, 3, 1).expect("valid way-partition geometry")),
        ];
        assert_eq!(
            BankedLlc::try_new(banks, 0, 1).err(),
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
        // Uneven chunking exercises the staging-buffer reuse.
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

    #[test]
    fn access_batch_matches_serial_bit_for_bit() {
        let reqs = trace(20_000);
        let mut serial = BankedLlc::try_new(banks(4, 512), 7, 1).expect("valid bank set");
        let serial_out: Vec<AccessOutcome> = reqs.iter().map(|&r| serial.access(r)).collect();
        // Chunks of 777 run the worker pool at jobs > 1; chunks of 100 sit
        // below PARALLEL_THRESHOLD and stay inline at any job count.
        for (jobs, chunk) in [(1, 777), (2, 777), (4, 777), (2, 100)] {
            let mut pipe = BankedLlc::try_new(banks(4, 512), 7, jobs)
                .expect("valid bank set")
                .with_batch_size(64);
            let mut out = Vec::new();
            for chunk in reqs.chunks(chunk) {
                pipe.access_batch(chunk, &mut out);
            }
            assert_eq!(serial_out, out, "outcomes diverge at jobs={jobs}");
            assert_eq!(observed_stats(&mut serial), observed_stats(&mut pipe));
            for p in (0..2).map(PartitionId::from_index) {
                assert_eq!(serial.partition_size(p), pipe.partition_size(p));
            }
            assert_eq!(serial.bank_digests(), pipe.bank_digests());
            assert_eq!(pipe.pending(), 0);
        }
    }

    #[test]
    fn windowed_digests_match_serial_at_any_jobs() {
        let reqs = trace(30_000);
        let (want_digests, want_stats) = serial_bank_digests(4, &reqs);
        for jobs in [1, 2, 4] {
            let mut pipe = BankedLlc::try_new(banks(4, 512), 7, jobs)
                .expect("valid bank set")
                .with_batch_size(128);
            for window in reqs.chunks(7001) {
                pipe.run_window(window);
                assert_eq!(pipe.pending(), 0, "run_window quiesces");
            }
            assert_eq!(pipe.bank_digests(), &want_digests[..], "jobs={jobs}");
            assert_eq!(observed_stats(&mut pipe), want_stats, "jobs={jobs}");
        }
    }

    #[test]
    fn ingest_with_backpressure_matches_serial() {
        let reqs = trace(30_000);
        let (want_digests, want_stats) = serial_bank_digests(4, &reqs);
        // Tiny batches + shallow rings: inline backpressure drains fire
        // constantly, cutting the bank-major runs early.
        let mut pipe = BankedLlc::try_new(banks(4, 512), 7, 1)
            .expect("valid bank set")
            .with_batch_size(16)
            .with_ring_capacity(2);
        for chunk in reqs.chunks(1234) {
            pipe.ingest(chunk);
        }
        pipe.barrier();
        assert_eq!(pipe.bank_digests(), &want_digests[..]);
        assert_eq!(observed_stats(&mut pipe), want_stats);
        let rs = pipe.ring_stats();
        assert_eq!(rs.peak_depth, 2, "backpressure capped the rings");
        assert!(rs.samples > 0 && rs.mean_depth() > 0.0);
    }

    #[test]
    fn empty_and_single_request_windows() {
        let mut pipe = BankedLlc::try_new(banks(2, 256), 3, 1).expect("valid bank set");
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
        let mut pipe = BankedLlc::try_new(banks(2, 256), 3, 1).expect("valid bank set");
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
        let mut pipe = BankedLlc::try_new(banks(2, 256), 3, 1).expect("valid bank set");
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
        let mut pipe = BankedLlc::try_new(banks(2, 256), 3, 1).expect("valid bank set");
        pipe.ingest(&trace(100));
        let mut enc = Encoder::new();
        pipe.save_state(&mut enc);
    }

    #[test]
    fn snapshot_round_trips_at_a_barrier() {
        let reqs = trace(10_000);
        let mut pipe = BankedLlc::try_new(banks(2, 256), 3, 1).expect("valid bank set");
        pipe.run_window(&reqs[..6000]);
        let mut enc = Encoder::new();
        pipe.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let mut restored = BankedLlc::try_new(banks(2, 256), 3, 1).expect("valid bank set");
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
    fn jobs_clamped_and_surface_delegates() {
        let pipe = BankedLlc::try_new(banks(2, 256), 3, 16).expect("valid bank set");
        assert_eq!(pipe.bank_jobs(), 2);
        let pipe = BankedLlc::try_new(banks(2, 256), 3, 0).expect("valid bank set");
        assert_eq!(pipe.bank_jobs(), 1);
        let mut pipe = BankedLlc::try_new(banks(4, 256), 9, 2).expect("valid bank set");
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
