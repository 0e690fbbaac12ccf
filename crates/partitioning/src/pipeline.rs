//! [`PipelinedBankedLlc`]: a bank-sharded LLC fed through per-bank ring
//! buffers and served in long bank-major runs.
//!
//! The serial [`BankedLlc`] re-shards every batch it is handed and walks the
//! banks once per batch, so each bank's tag and metadata arrays are pulled
//! through the host's caches once per driver batch. This engine decouples
//! *production* (sharding requests by bank hash) from *consumption* (serving
//! a bank's requests): requests accumulate in per-bank rings of recycled
//! `WorkBatch` buffers, and a drain serves each bank's entire queued run
//! contiguously before touching the next bank. At memory-bound scales the
//! bank-major schedule keeps one bank's metadata hot for hundreds of
//! thousands of consecutive accesses instead of a few thousand, which is
//! where the engine's throughput advantage over the per-access serial path
//! comes from.
//!
//! Ordering and determinism: production scans the window in request order,
//! rings are FIFO, and a bank is only ever served by one consumer — so every
//! bank sees its requests strictly in trace order, exactly like the serial
//! engine. Outcomes, statistics, partition sizes and per-bank telemetry are
//! therefore bit-identical to [`BankedLlc`] at any `jobs` count; only the
//! service *schedule* (and the interleaving of telemetry records across
//! banks) differs. Each bank folds the hit bit of every outcome it serves
//! into a per-bank FNV-1a digest ([`PipelinedBankedLlc::bank_digests`]),
//! giving callers a cheap end-to-end equivalence check against a serial
//! reference without buffering outcome streams.
//!
//! Barriers: the engine is *windowed*, not transactional. Requests handed to
//! [`PipelinedBankedLlc::ingest`] may sit queued until
//! [`barrier`](PipelinedBankedLlc::barrier) — every
//! observation or reconfiguration point (target updates, partition
//! lifecycle, stats, telemetry arming, checkpoints) must quiesce first, and
//! the [`Llc`] implementation does so automatically. Checkpoints only cut at
//! barriers: [`vantage_snapshot::Snapshot::save_state`] refuses to serialize
//! an engine with queued work, which is what keeps pipelined snapshots
//! bit-identical to serial ones.
//!
//! This is also the workspace's one worker pool. With `jobs > 1`, a window
//! of at least [`PipelinedBankedLlc::PARALLEL_THRESHOLD`] requests — handed
//! over through [`run_window`](PipelinedBankedLlc::run_window) or
//! [`Llc::access_batch`] — streams its batches through bounded SPSC queues
//! to scoped worker threads (one owner per bank, round-robin over workers)
//! so consumption overlaps production; smaller windows, and every window at
//! `jobs <= 1`, buffer in the rings and drain inline. Both paths stage
//! through the same routine and serve identical per-bank sequences. Workers
//! are spawned per window with [`std::thread::scope`]: windows in the
//! thousands amortize the spawn cost, and no thread outlives the call.

use std::collections::VecDeque;

use vantage_cache::hash::mix_bucket;
use vantage_cache::{LineAddr, PartitionId};
use vantage_telemetry::Telemetry;

use crate::banked::BankedLlc;
use crate::error::{SchemeConfigError, TargetsError};
use crate::llc::{AccessOutcome, AccessRequest, Llc, LlcStats};
use crate::sharded::Sharded;
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
/// production outruns consumption between barriers — the buffering the
/// engine exists to exploit; a peak at the configured ring capacity means
/// inline backpressure drains fired.
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

/// A multi-bank LLC whose accesses flow through per-bank ring buffers and
/// are served in bank-major runs.
///
/// Composition over [`BankedLlc`]: construction, target splitting, stats
/// aggregation, telemetry fan-out and snapshotting all delegate; what
/// changes is the *service schedule* of batched accesses. See the module
/// docs for the ordering/determinism argument.
///
/// # Example
///
/// ```
/// use vantage_cache::SetAssocArray;
/// use vantage_partitioning::{
///     AccessRequest, BaselineLlc, Llc, PipelinedBankedLlc, PartitionId, RankPolicy,
/// };
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
/// let mut llc = PipelinedBankedLlc::try_new(banks, 7, 1).expect("valid bank set");
/// let reqs: Vec<AccessRequest> = (0..1000)
///     .map(|i| AccessRequest::read(PartitionId::from_index(0), vantage_cache::LineAddr(i)))
///     .collect();
/// llc.run_window(&reqs); // shard into rings, drain bank-major
/// assert_eq!(llc.pending(), 0, "run_window leaves the engine quiesced");
/// assert_eq!(llc.bank_digests().len(), 4);
/// ```
pub struct PipelinedBankedLlc {
    inner: BankedLlc,
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
    /// Recycled batch buffers (the "double buffering": a steady-state
    /// window is served out of the same allocations as the last one).
    spares: Vec<WorkBatch>,
    /// Per-bank FNV-1a digests over served outcome hit bits, in per-bank
    /// service order (== per-bank request order).
    digests: Vec<u64>,
    ring_stats: RingStats,
    /// Requests ingested but not yet served.
    pending: usize,
    scratch: Vec<AccessOutcome>,
}

impl PipelinedBankedLlc {
    /// Default requests per ring slot.
    pub const DEFAULT_BATCH: usize = 4096;

    /// Default ring depth (batches per bank) before inline backpressure.
    pub const DEFAULT_RING_CAP: usize = 64;

    /// In-flight batches per worker queue in parallel windows.
    const QUEUE_CAP: usize = 8;

    /// Windows smaller than this are served inline even with `jobs > 1` —
    /// the scoped-pool setup cost would dominate.
    pub const PARALLEL_THRESHOLD: usize = 256;

    /// Assembles a pipelined banked LLC from per-bank caches; `jobs` is the
    /// consumer thread count for [`run_window`](Self::run_window) (clamped
    /// to the bank count, 0 treated as 1; 1 means inline consumption).
    ///
    /// # Errors
    ///
    /// Propagates [`BankedLlc::try_new`]'s errors.
    pub fn try_new(
        banks: Vec<Box<dyn Llc>>,
        bank_seed: u64,
        jobs: usize,
    ) -> Result<Self, SchemeConfigError> {
        Ok(Self::from_banked(
            BankedLlc::try_new(banks, bank_seed)?,
            jobs,
        ))
    }

    /// Wraps an already-assembled serial banked cache.
    pub fn from_banked(inner: BankedLlc, jobs: usize) -> Self {
        let n = Sharded::num_banks(&inner);
        let jobs = jobs.clamp(1, n);
        Self {
            inner,
            jobs,
            batch: Self::DEFAULT_BATCH,
            ring_cap: Self::DEFAULT_RING_CAP,
            staging: (0..n).map(|_| WorkBatch::default()).collect(),
            rings: (0..n).map(|_| VecDeque::new()).collect(),
            spares: Vec::new(),
            digests: vec![DIGEST_SEED; n],
            ring_stats: RingStats::default(),
            pending: 0,
            scratch: Vec::new(),
        }
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

    /// The configured consumer thread count.
    pub fn bank_jobs(&self) -> usize {
        self.jobs
    }

    /// Requests ingested but not yet served. Zero means the engine is
    /// quiesced (at a barrier).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Per-bank FNV-1a digests over the hit bit of every outcome served
    /// since construction (or the last [`reset_digests`](Self::reset_digests)),
    /// folded in per-bank service order. A serial reference produces the
    /// same digests by folding its outcome stream grouped by
    /// [`Sharded::bank_of`].
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

    /// The serial engine this cache wraps (e.g. for per-bank inspection).
    pub fn as_banked(&self) -> &BankedLlc {
        &self.inner
    }

    /// Unwraps back into the serial engine, discarding any queued work.
    pub fn into_banked(mut self) -> BankedLlc {
        self.barrier();
        self.inner
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
        let (seed, batch, scatter) = (self.inner.bank_seed(), self.batch, out.is_some());
        self.pending += reqs.len();
        let mut next = 0;
        while let Some(b) = stage(&mut self.staging, seed, batch, reqs, &mut next, scatter) {
            self.close_staging(b, out.as_deref_mut());
        }
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

    /// Drains every queued batch for bank `b` — one contiguous bank-major
    /// run — folding outcomes into the bank's digest and, with `out`,
    /// scattering them to each batch's recorded request-order positions.
    fn drain_bank(&mut self, b: usize, mut out: Option<&mut [AccessOutcome]>) {
        while let Some(mut wb) = self.rings[b].pop_front() {
            let bank = self.inner.bank_mut(b);
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

    /// Quiesces the engine: closes every staging batch and serves every
    /// ring, bank-major. This is the *only* point where queued work is
    /// guaranteed served; epoch repartitioning, checkpoints, stats reads
    /// and lifecycle operations all sit behind it.
    pub fn barrier(&mut self) {
        if self.pending != 0 {
            self.flush(None);
        }
    }

    /// Serves one window of requests through the engine's native path and
    /// quiesces: with `jobs <= 1` the window is sharded into the rings and
    /// drained bank-major inline; with `jobs > 1` production (sharding, on
    /// the calling thread) overlaps consumption (scoped workers owning
    /// banks round-robin, fed over bounded SPSC queues). Outcomes fold into
    /// the per-bank digests; use [`Llc::access_batch`] to get them back.
    pub fn run_window(&mut self, reqs: &[AccessRequest]) {
        self.serve_window(reqs, None);
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
            inner,
            staging,
            spares,
            digests,
            ..
        } = self;
        let (jobs, batch, seed, scatter) =
            (self.jobs, self.batch, inner.bank_seed(), out.is_some());

        // Round-robin banks over workers, each bank travelling with its
        // digest: bank `b` is slot `b / jobs` of worker `b % jobs`. Disjoint
        // &mut borrows, checked by iter_mut.
        let mut worker_banks: Vec<Vec<OwnedBank<'_>>> = (0..jobs).map(|_| Vec::new()).collect();
        for (b, owned) in inner.banks_mut().iter_mut().zip(digests).enumerate() {
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

impl Llc for PipelinedBankedLlc {
    /// Serves one request inline, routed once. Quiesces first so the request
    /// observes every previously ingested access in order; with nothing
    /// queued that is one branch, which (with the digest fold) is what a
    /// per-access driver (`CmpSim` on a `--bank-jobs N` machine) pays over
    /// [`BankedLlc`].
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        self.barrier();
        let b = self.inner.bank_of(req.addr);
        let o = self.inner.bank_mut(b).access(req);
        self.digests[b] = fnv(self.digests[b], o.is_hit() as u64);
        o
    }

    /// The outcome-returning path: quiesce, serve the batch as one window
    /// with scatter indices, and hand outcomes back in request order.
    /// Identical results to [`BankedLlc::access_batch`]; bank-major service
    /// schedule.
    fn access_batch(&mut self, reqs: &[AccessRequest], out: &mut Vec<AccessOutcome>) {
        let start = out.len();
        out.resize(start + reqs.len(), AccessOutcome::Miss);
        self.serve_window(reqs, Some(&mut out[start..]));
    }

    fn num_partitions(&self) -> usize {
        self.inner.num_partitions()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Quiesces, then retargets: repartitioning is an epoch barrier, so
    /// every queued access lands under the old targets first.
    fn set_targets(&mut self, targets: &[u64]) -> Result<(), TargetsError> {
        self.barrier();
        self.inner.set_targets(targets)
    }

    /// The size visible at the last barrier; queued accesses have not
    /// landed yet. Observation paths that must be exact (`observations`,
    /// `stats_mut`) quiesce automatically.
    fn partition_size(&self, part: PartitionId) -> u64 {
        self.inner.partition_size(part)
    }

    fn create_partition(
        &mut self,
        spec: crate::llc::PartitionSpec,
    ) -> Result<PartitionId, crate::llc::LifecycleError> {
        self.barrier();
        self.inner.create_partition(spec)
    }

    fn destroy_partition(&mut self, part: PartitionId) -> Result<(), crate::llc::LifecycleError> {
        self.barrier();
        self.inner.destroy_partition(part)
    }

    fn observations(&mut self) -> crate::llc::PartitionObservations {
        self.barrier();
        self.inner.observations()
    }

    /// Mode changes cut at a barrier: queued accesses were issued under the
    /// old mode and must land under it.
    fn set_share_mode(&mut self, mode: vantage_cache::ShareMode) -> bool {
        self.barrier();
        self.inner.set_share_mode(mode)
    }

    fn share_mode(&self) -> vantage_cache::ShareMode {
        self.inner.share_mode()
    }

    fn stats(&self) -> &LlcStats {
        self.inner.stats()
    }

    fn stats_mut(&mut self) -> &mut LlcStats {
        self.barrier();
        self.inner.stats_mut()
    }

    fn take_stats(&mut self) -> LlcStats {
        self.barrier();
        self.inner.take_stats()
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) -> bool {
        self.barrier();
        self.inner.set_telemetry(telemetry)
    }

    fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.barrier();
        self.inner.take_telemetry()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl vantage_snapshot::Snapshot for PipelinedBankedLlc {
    /// Checkpoints only cut at barriers: serializing with queued work would
    /// bake the ring contents' *absence* into the snapshot and diverge from
    /// a serial run on restore. `save_state` takes `&self`, so it cannot
    /// quiesce for you — callers drain first (the simulator's checkpoint
    /// path barriers at the epoch boundary before saving).
    ///
    /// # Panics
    ///
    /// Panics if the engine has pending (ingested, unserved) requests.
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        assert_eq!(
            self.pending, 0,
            "checkpoint cut mid-window: barrier() before save_state"
        );
        // The rings and the worker pool hold no simulation state once
        // drained; the wrapped serial engine is the whole checkpoint, so
        // snapshots interchange with `BankedLlc` and across job counts.
        self.inner.save_state(enc);
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        // Queued pre-restore work is meaningless against the restored
        // state; drop it and start the new run quiesced with fresh digests.
        for (open, ring) in self.staging.iter_mut().zip(&mut self.rings) {
            open.idxs.clear();
            open.reqs.clear();
            ring.clear();
        }
        self.pending = 0;
        self.reset_digests();
        self.inner.load_state(dec)
    }
}

impl Sharded for PipelinedBankedLlc {
    fn num_banks(&self) -> usize {
        Sharded::num_banks(&self.inner)
    }

    fn bank_of(&self, addr: LineAddr) -> usize {
        self.inner.bank_of(addr)
    }

    fn bank(&self, i: usize) -> &dyn Llc {
        self.inner.bank(i)
    }

    fn bank_mut(&mut self, i: usize) -> &mut dyn Llc {
        self.inner.bank_mut(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{BaselineLlc, RankPolicy};
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

    /// The serial reference for digest checks: fold a serial engine's
    /// outcome stream grouped by bank.
    fn serial_bank_digests(llc: &BankedLlc, reqs: &[AccessRequest]) -> (Vec<u64>, Vec<u64>) {
        let mut serial =
            BankedLlc::try_new(banks(Sharded::num_banks(llc), 512), 7).expect("valid bank set");
        let mut digests = vec![DIGEST_SEED; Sharded::num_banks(llc)];
        let mut stats = Vec::new();
        for &r in reqs {
            let b = serial.bank_of(r.addr);
            let o = serial.access(r);
            digests[b] = fnv(digests[b], o.is_hit() as u64);
        }
        let s = serial.stats_mut();
        stats.extend(s.hits.iter().copied());
        stats.extend(s.misses.iter().copied());
        stats.push(s.evictions);
        (digests, stats)
    }

    fn observed_stats(llc: &mut dyn Llc) -> Vec<u64> {
        let s = llc.stats_mut();
        let mut v: Vec<u64> = s.hits.to_vec();
        v.extend(s.misses.iter().copied());
        v.push(s.evictions);
        v
    }

    #[test]
    fn access_batch_matches_serial_bit_for_bit() {
        let reqs = trace(20_000);
        let mut serial = BankedLlc::try_new(banks(4, 512), 7).expect("valid bank set");
        let mut serial_out = Vec::new();
        for chunk in reqs.chunks(777) {
            serial.access_batch(chunk, &mut serial_out);
        }
        // Chunks of 777 run the worker pool at jobs > 1; chunks of 100 sit
        // below PARALLEL_THRESHOLD and stay inline at any job count.
        for (jobs, chunk) in [(1, 777), (2, 777), (4, 777), (2, 100)] {
            let mut pipe = PipelinedBankedLlc::try_new(banks(4, 512), 7, jobs)
                .expect("valid bank set")
                .with_batch_size(64);
            let mut out = Vec::new();
            for chunk in reqs.chunks(chunk) {
                pipe.access_batch(chunk, &mut out);
            }
            assert_eq!(serial_out, out, "outcomes diverge at jobs={jobs}");
            assert_eq!(serial.stats_mut().hits, pipe.stats_mut().hits);
            assert_eq!(serial.stats_mut().misses, pipe.stats_mut().misses);
            assert_eq!(serial.stats_mut().evictions, pipe.stats_mut().evictions);
            for p in (0..2).map(PartitionId::from_index) {
                assert_eq!(serial.partition_size(p), pipe.partition_size(p));
            }
            assert_eq!(pipe.pending(), 0);
        }
    }

    #[test]
    fn windowed_digests_match_serial_at_any_jobs() {
        let reqs = trace(30_000);
        let probe = BankedLlc::try_new(banks(4, 512), 7).expect("valid bank set");
        let (want_digests, want_stats) = serial_bank_digests(&probe, &reqs);
        for jobs in [1, 2, 4] {
            let mut pipe = PipelinedBankedLlc::try_new(banks(4, 512), 7, jobs)
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
        let probe = BankedLlc::try_new(banks(4, 512), 7).expect("valid bank set");
        let (want_digests, want_stats) = serial_bank_digests(&probe, &reqs);
        // Tiny batches + shallow rings: inline backpressure drains fire
        // constantly, cutting the bank-major runs early.
        let mut pipe = PipelinedBankedLlc::try_new(banks(4, 512), 7, 1)
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
        let mut pipe = PipelinedBankedLlc::try_new(banks(2, 256), 3, 1).expect("valid bank set");
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
        let mut pipe = PipelinedBankedLlc::try_new(banks(2, 256), 3, 1).expect("valid bank set");
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
        let mut pipe = PipelinedBankedLlc::try_new(banks(2, 256), 3, 1).expect("valid bank set");
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
        let mut pipe = PipelinedBankedLlc::try_new(banks(2, 256), 3, 1).expect("valid bank set");
        pipe.ingest(&trace(100));
        let mut enc = Encoder::new();
        pipe.save_state(&mut enc);
    }

    #[test]
    fn snapshot_round_trips_at_a_barrier() {
        let reqs = trace(10_000);
        let mut pipe = PipelinedBankedLlc::try_new(banks(2, 256), 3, 1).expect("valid bank set");
        pipe.run_window(&reqs[..6000]);
        let mut enc = Encoder::new();
        pipe.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let mut restored =
            PipelinedBankedLlc::try_new(banks(2, 256), 3, 1).expect("valid bank set");
        // Queued work in the target must not leak into the restored run.
        restored.ingest(&reqs[..100]);
        let mut dec = Decoder::new(&bytes, "pipelined llc");
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
        let pipe = PipelinedBankedLlc::try_new(banks(2, 256), 3, 16).expect("valid bank set");
        assert_eq!(pipe.bank_jobs(), 2);
        let pipe = PipelinedBankedLlc::try_new(banks(2, 256), 3, 0).expect("valid bank set");
        assert_eq!(pipe.bank_jobs(), 1);
        let mut pipe = PipelinedBankedLlc::try_new(banks(4, 256), 9, 2).expect("valid bank set");
        assert_eq!(pipe.capacity(), 1024);
        assert_eq!(pipe.num_partitions(), 2);
        assert!(pipe.name().starts_with("4x"));
        assert_eq!(Sharded::num_banks(&pipe), 4);
        let addr = LineAddr(0x55);
        let b = pipe.bank_of(addr);
        pipe.access(AccessRequest::read(PartitionId::from_index(0), addr));
        assert_eq!(pipe.bank(b).stats().total_misses(), 1);
        assert_eq!(pipe.bank_mut(b).num_partitions(), 2);
        let serial = pipe.into_banked();
        assert_eq!(serial.capacity(), 1024);
    }
}
