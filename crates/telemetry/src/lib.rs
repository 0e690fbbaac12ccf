//! Telemetry for partition dynamics: typed events, periodic samples, and
//! pluggable sinks.
//!
//! Vantage's argument is about *dynamics* — aperture feedback (Eq. 7),
//! setpoint adjustment every `c = 256` candidates, the unmanaged region
//! absorbing churn. This crate gives every
//! [`Llc`](../vantage_partitioning/trait.Llc.html) implementation a uniform,
//! low-overhead way to expose those trajectories:
//!
//! * [`TelemetryEvent`] — one discrete controller action (demotion,
//!   promotion, eviction, setpoint adjustment, aperture update, scrub).
//! * [`PartitionSample`] — one periodic per-partition snapshot (actual and
//!   target size, aperture, setpoint window, churn since the last sample);
//!   the unmanaged region reports as partition [`UNMANAGED_PART`].
//! * [`TelemetrySink`] — where records go: [`NullSink`] (drops everything;
//!   the zero-cost stand-in for "instrumentation wired but off"),
//!   [`RingSink`] (bounded in-memory ring with a shared [`RingReader`]),
//!   and [`JsonSink`] (JSON Lines over any file or stream, parsed back by
//!   [`from_json_line`]).
//! * [`Telemetry`] — the producer-side handle a cache embeds: it owns the
//!   sink, decides when samples are due, and meters per-partition churn so
//!   producers only report raw events.
//!
//! # Hot-path contract
//!
//! A cache with no telemetry installed ([`Telemetry::disabled`]) pays one
//! predictable null-check per instrumentation site and allocates nothing.
//! With a [`NullSink`] installed the cost adds one virtual call to an empty
//! body per *event* (events fire on misses, not per candidate), which the
//! `perf` harness pins to within 2% of the uninstrumented throughput. No
//! sink may allocate per record on the producer's path; [`RingSink`] uses a
//! preallocated ring and [`JsonSink`] buffers through
//! [`std::io::BufWriter`].
//!
//! # Example
//!
//! ```
//! use vantage_telemetry::{PartitionId, PartitionSample, RingSink, Telemetry, TelemetryEvent, TelemetryRecord};
//!
//! let (sink, reader) = RingSink::with_capacity(64);
//! let mut tele = Telemetry::new(Box::new(sink), 1024);
//! tele.bind(2);
//! tele.event(TelemetryEvent::Demotion { access: 7, part: PartitionId::from_index(1) });
//! assert_eq!(reader.len(), 1);
//! match reader.records()[0] {
//!     TelemetryRecord::Event(TelemetryEvent::Demotion { part, .. }) => assert_eq!(part.index(), 1),
//!     _ => unreachable!(),
//! }
//! ```

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

pub use vantage_cache::PartitionId;

/// The partition ID telemetry uses for the unmanaged region (matches
/// `vantage::UNMANAGED`).
pub const UNMANAGED_PART: PartitionId = PartitionId::UNMANAGED;

/// One discrete controller action.
///
/// `access` is the producing cache's access sequence number, the natural
/// time base for dynamics traces (simulated cycles are a simulator concept;
/// the cache sees accesses).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TelemetryEvent {
    /// A managed line left `part` for the unmanaged region
    /// (setpoint-based demotion, §4.2).
    Demotion {
        /// Access sequence number.
        access: u64,
        /// The partition that lost the line.
        part: PartitionId,
    },
    /// An unmanaged line rejoined `part` on a hit.
    Promotion {
        /// Access sequence number.
        access: u64,
        /// The partition that regained the line.
        part: PartitionId,
    },
    /// A resident line was evicted. `part` is the owner at eviction time
    /// ([`UNMANAGED_PART`] for the unmanaged region); `forced` marks an
    /// eviction taken from the managed region because no unmanaged or
    /// just-demoted candidate existed (the isolation-violation case).
    Eviction {
        /// Access sequence number.
        access: u64,
        /// Owning partition of the evicted line.
        part: PartitionId,
        /// Whether the eviction was forced from the managed region.
        forced: bool,
    },
    /// The feedback loop nudged `part`'s setpoint (once per `c`
    /// candidates). `direction` is +1 when the keep window widened (too
    /// many demotions), -1 when it tightened, 0 when on target; `window`
    /// is the keep window after the adjustment, in timestamp units.
    SetpointAdjust {
        /// Access sequence number.
        access: u64,
        /// The adjusted partition.
        part: PartitionId,
        /// +1 widened, -1 tightened, 0 unchanged.
        direction: i8,
        /// Keep window after the adjustment.
        window: u8,
    },
    /// `part`'s (implied) aperture changed — emitted alongside setpoint
    /// adjustments and on retargeting, with the Eq. 7 aperture at the
    /// partition's current size.
    ApertureUpdate {
        /// Access sequence number.
        access: u64,
        /// The partition whose aperture moved.
        part: PartitionId,
        /// The continuous aperture of Eq. 7 at the current actual size.
        aperture: f32,
    },
    /// A scrub pass ran; `repairs` is the total number of repairs it made
    /// (0 for a clean pass).
    Scrub {
        /// Access sequence number.
        access: u64,
        /// Repairs performed (tags + size registers + meters + setpoints).
        repairs: u64,
    },
    /// A partition came live (service-mode `create_partition`).
    PartitionCreated {
        /// Access sequence number.
        access: u64,
        /// The new partition's slot.
        part: PartitionId,
        /// The managed-region target it was granted, in lines.
        target: u64,
    },
    /// A partition was retired (service-mode `destroy_partition`); its
    /// lines drain into the unmanaged region via ordinary demotions, so no
    /// bulk-eviction events accompany this.
    PartitionDestroyed {
        /// Access sequence number.
        access: u64,
        /// The retired partition's slot.
        part: PartitionId,
    },
    /// `part` hit a line owned by another partition (the ownership layer's
    /// cross-partition sharing observation; never fires under
    /// `ShareMode::Replicate`, whose per-partition address salting keeps
    /// lookups disjoint).
    SharedHit {
        /// Access sequence number.
        access: u64,
        /// The accessing partition.
        part: PartitionId,
        /// The partition that owned the line at the time of the hit.
        owner: PartitionId,
    },
    /// A cross-partition hit transferred the line's ownership to the
    /// accessor (`ShareMode::Adopt` only). Always paired with a
    /// [`TelemetryEvent::SharedHit`] at the same access.
    OwnershipTransfer {
        /// Access sequence number.
        access: u64,
        /// The adopting partition (the line's new owner).
        part: PartitionId,
        /// The previous owner.
        from: PartitionId,
    },
    /// `part` installed a per-partition replica of a shared line
    /// (`ShareMode::Replicate` only).
    Replica {
        /// Access sequence number.
        access: u64,
        /// The partition that filled the replica.
        part: PartitionId,
    },
}

impl TelemetryEvent {
    /// The access sequence number the event was produced at.
    pub fn access(&self) -> u64 {
        match *self {
            Self::Demotion { access, .. }
            | Self::Promotion { access, .. }
            | Self::Eviction { access, .. }
            | Self::SetpointAdjust { access, .. }
            | Self::ApertureUpdate { access, .. }
            | Self::Scrub { access, .. }
            | Self::PartitionCreated { access, .. }
            | Self::PartitionDestroyed { access, .. }
            | Self::SharedHit { access, .. }
            | Self::OwnershipTransfer { access, .. }
            | Self::Replica { access, .. } => access,
        }
    }

    /// The partition the event concerns ([`UNMANAGED_PART`] where that is
    /// the unmanaged region; `None` for cache-wide events like scrubs).
    pub fn part(&self) -> Option<PartitionId> {
        match *self {
            Self::Demotion { part, .. }
            | Self::Promotion { part, .. }
            | Self::Eviction { part, .. }
            | Self::SetpointAdjust { part, .. }
            | Self::ApertureUpdate { part, .. }
            | Self::PartitionCreated { part, .. }
            | Self::PartitionDestroyed { part, .. }
            | Self::SharedHit { part, .. }
            | Self::OwnershipTransfer { part, .. }
            | Self::Replica { part, .. } => Some(part),
            Self::Scrub { .. } => None,
        }
    }
}

/// One periodic per-partition snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionSample {
    /// Access sequence number of the sampling point.
    pub access: u64,
    /// Partition ID ([`UNMANAGED_PART`] for the unmanaged region).
    pub part: PartitionId,
    /// Lines the partition currently holds.
    pub actual: u64,
    /// The partition's target in lines (0 when the scheme keeps none).
    pub target: u64,
    /// The continuous Eq. 7 aperture at `actual` (0 for schemes without
    /// apertures).
    pub aperture: f32,
    /// The setpoint keep window in timestamp units (0 for schemes without
    /// setpoints).
    pub window: u8,
    /// Lines the partition lost (demotion or eviction) since the previous
    /// sample — the empirical churn rate over one sampling period.
    pub churn: u64,
    /// Cross-partition hits made by this partition at the sampling point
    /// (the ownership layer's counter, which resets when stats are
    /// drained; 0 for non-sharing workloads). Rendered into JSON only when
    /// nonzero, so zero-sharing traces are byte-identical to
    /// pre-ownership-layer ones.
    pub shared: u64,
    /// Ownership transfers to this partition at the sampling point
    /// (nonzero only under `ShareMode::Adopt`; same reset and rendering
    /// rules as `shared`).
    pub transfers: u64,
}

/// A record: either a discrete event or a periodic sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TelemetryRecord {
    /// A discrete controller action.
    Event(TelemetryEvent),
    /// A periodic per-partition snapshot.
    Sample(PartitionSample),
}

impl TelemetryRecord {
    /// The record's access sequence number.
    pub fn access(&self) -> u64 {
        match self {
            Self::Event(e) => e.access(),
            Self::Sample(s) => s.access,
        }
    }
}

/// A destination for telemetry records.
///
/// Sinks must not allocate per record on `record_*` (the producer may sit on
/// a cache's miss path); buffered backends allocate at construction and on
/// `flush`.
pub trait TelemetrySink: Send {
    /// Records one discrete event.
    fn record_event(&mut self, ev: &TelemetryEvent);
    /// Records one periodic sample.
    fn record_sample(&mut self, s: &PartitionSample);
    /// Flushes buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}
    /// The first I/O error this sink has absorbed, if any.
    ///
    /// File sinks cannot propagate errors from the record path (it may sit
    /// on a cache's miss path), so they record the first failure here
    /// instead of silently dropping it; callers check after
    /// [`flush`](Self::flush) to learn whether the trace on disk is complete.
    /// In-memory sinks never error.
    fn io_error(&self) -> Option<String> {
        None
    }
    /// Tags subsequently recorded records as coming from bank `bank` of a
    /// multi-banked cache (`None` clears the tag).
    ///
    /// Default is a no-op: in-memory sinks keep records untagged so traces
    /// from a sharded run compare record-for-record with a serial run.
    /// [`JsonSink`] appends the tag as a `"bank"` key, which
    /// [`from_json_line`] tolerates.
    fn set_bank(&mut self, _bank: Option<u16>) {}
}

/// A cloneable sink wrapper that serializes several producers into one
/// underlying sink.
///
/// A banked cache hands each bank a [`SharedSink::with_bank`] clone; every
/// record funnels through one mutex into the shared backend, tagged with the
/// recording bank via [`TelemetrySink::set_bank`] (taken under the same lock,
/// so tags cannot interleave). Record order *across* banks follows execution
/// order, which a parallel engine does not make deterministic — consumers
/// comparing sharded against serial traces should compare multisets, or
/// group by the bank tag.
pub struct SharedSink {
    inner: Arc<Mutex<Box<dyn TelemetrySink>>>,
    bank: Option<u16>,
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink")
            .field("bank", &self.bank)
            .field("handles", &Arc::strong_count(&self.inner))
            .finish()
    }
}

impl SharedSink {
    /// Wraps `inner` for sharing. The wrapper itself records untagged;
    /// producers get tagged handles from [`SharedSink::with_bank`].
    pub fn new(inner: Box<dyn TelemetrySink>) -> Self {
        Self {
            inner: Arc::new(Mutex::new(inner)),
            bank: None,
        }
    }

    /// A handle onto the same backend whose records are tagged `bank`.
    pub fn with_bank(&self, bank: u16) -> Self {
        Self {
            inner: self.inner.clone(),
            bank: Some(bank),
        }
    }

    /// Recovers the wrapped sink once every clone has been dropped.
    ///
    /// # Errors
    ///
    /// Returns `self` unchanged while other handles are still alive.
    pub fn try_unwrap(self) -> Result<Box<dyn TelemetrySink>, Self> {
        let bank = self.bank;
        match Arc::try_unwrap(self.inner) {
            Ok(m) => Ok(m
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)),
            Err(inner) => Err(Self { inner, bank }),
        }
    }

    fn with_lock(&self, f: impl FnOnce(&mut Box<dyn TelemetrySink>)) {
        // A producer that panicked mid-record leaves a poisoned (but
        // structurally sound) sink; keep collecting from the others.
        let mut g = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        g.set_bank(self.bank);
        f(&mut g);
    }
}

impl TelemetrySink for SharedSink {
    fn record_event(&mut self, ev: &TelemetryEvent) {
        self.with_lock(|s| s.record_event(ev));
    }
    fn record_sample(&mut self, s: &PartitionSample) {
        self.with_lock(|sink| sink.record_sample(s));
    }
    fn flush(&mut self) {
        self.with_lock(|s| s.flush());
    }
    fn io_error(&self) -> Option<String> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .io_error()
    }
    fn set_bank(&mut self, bank: Option<u16>) {
        self.bank = bank;
    }
}

/// The zero-cost sink: drops everything. Installing it exercises the whole
/// instrumentation path (the `perf` harness's overhead guard) without
/// retaining records.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    #[inline]
    fn record_event(&mut self, _ev: &TelemetryEvent) {}
    #[inline]
    fn record_sample(&mut self, _s: &PartitionSample) {}
}

/// Shared ring storage behind [`RingSink`]/[`RingReader`].
#[derive(Debug)]
struct Ring {
    buf: VecDeque<TelemetryRecord>,
    cap: usize,
    /// Records dropped from the front after the ring filled.
    overwritten: u64,
}

/// A bounded in-memory sink: keeps the most recent `capacity` records,
/// overwriting the oldest. Reads go through the [`RingReader`] handle
/// returned by [`RingSink::with_capacity`], which stays usable after the
/// sink has been moved into a cache.
#[derive(Debug)]
pub struct RingSink {
    ring: Arc<Mutex<Ring>>,
}

/// A read handle onto a [`RingSink`]'s storage.
#[derive(Clone, Debug)]
pub struct RingReader {
    ring: Arc<Mutex<Ring>>,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` records (at least 1) and
    /// its read handle.
    pub fn with_capacity(capacity: usize) -> (Self, RingReader) {
        let cap = capacity.max(1);
        let ring = Arc::new(Mutex::new(Ring {
            buf: VecDeque::with_capacity(cap),
            cap,
            overwritten: 0,
        }));
        (Self { ring: ring.clone() }, RingReader { ring })
    }

    fn push(&self, rec: TelemetryRecord) {
        // The mutex is uncontended in the single-producer case; a poisoned
        // lock (reader panicked mid-inspection) still accepts records.
        let mut ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.overwritten += 1;
        }
        ring.buf.push_back(rec);
    }
}

impl TelemetrySink for RingSink {
    fn record_event(&mut self, ev: &TelemetryEvent) {
        self.push(TelemetryRecord::Event(*ev));
    }
    fn record_sample(&mut self, s: &PartitionSample) {
        self.push(TelemetryRecord::Sample(*s));
    }
}

impl RingReader {
    /// A snapshot of the retained records, oldest first.
    pub fn records(&self) -> Vec<TelemetryRecord> {
        let ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.buf.iter().copied().collect()
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .buf
            .len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped from the front since creation (0 until the ring
    /// first fills).
    pub fn overwritten(&self) -> u64 {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .overwritten
    }
}

/// Renders one record as a JSON object on a single line (JSON Lines; the
/// workspace is offline and vendors no serde, so the schema is flat
/// key-value with string and number values only).
pub fn to_json_line(rec: &TelemetryRecord) -> String {
    let mut s = String::with_capacity(96);
    match rec {
        TelemetryRecord::Sample(p) => {
            let _ = write!(
                s,
                "{{\"record\":\"sample\",\"access\":{},\"part\":{},\"actual\":{},\"target\":{},\"aperture\":{:.6},\"window\":{},\"churn\":{}",
                p.access,
                p.part.raw(),
                p.actual,
                p.target,
                p.aperture,
                p.window,
                p.churn
            );
            // Sharing keys only when nonzero, so zero-sharing traces are
            // byte-identical to pre-ownership-layer output.
            if p.shared != 0 || p.transfers != 0 {
                let _ = write!(s, ",\"shared\":{},\"transfers\":{}", p.shared, p.transfers);
            }
            s.push('}');
        }
        TelemetryRecord::Event(ev) => match *ev {
            TelemetryEvent::Demotion { access, part } => {
                let part = part.raw();
                let _ = write!(
                    s,
                    "{{\"record\":\"demotion\",\"access\":{access},\"part\":{part}}}"
                );
            }
            TelemetryEvent::Promotion { access, part } => {
                let part = part.raw();
                let _ = write!(
                    s,
                    "{{\"record\":\"promotion\",\"access\":{access},\"part\":{part}}}"
                );
            }
            TelemetryEvent::Eviction {
                access,
                part,
                forced,
            } => {
                let part = part.raw();
                let _ = write!(
                    s,
                    "{{\"record\":\"eviction\",\"access\":{access},\"part\":{part},\"forced\":{forced}}}"
                );
            }
            TelemetryEvent::SetpointAdjust {
                access,
                part,
                direction,
                window,
            } => {
                let part = part.raw();
                let _ = write!(
                    s,
                    "{{\"record\":\"setpoint\",\"access\":{access},\"part\":{part},\"direction\":{direction},\"window\":{window}}}"
                );
            }
            TelemetryEvent::ApertureUpdate {
                access,
                part,
                aperture,
            } => {
                let part = part.raw();
                let _ = write!(
                    s,
                    "{{\"record\":\"aperture\",\"access\":{access},\"part\":{part},\"aperture\":{aperture:.6}}}"
                );
            }
            TelemetryEvent::Scrub { access, repairs } => {
                let _ = write!(
                    s,
                    "{{\"record\":\"scrub\",\"access\":{access},\"repairs\":{repairs}}}"
                );
            }
            TelemetryEvent::PartitionCreated {
                access,
                part,
                target,
            } => {
                let part = part.raw();
                let _ = write!(
                    s,
                    "{{\"record\":\"created\",\"access\":{access},\"part\":{part},\"target\":{target}}}"
                );
            }
            TelemetryEvent::PartitionDestroyed { access, part } => {
                let part = part.raw();
                let _ = write!(
                    s,
                    "{{\"record\":\"destroyed\",\"access\":{access},\"part\":{part}}}"
                );
            }
            TelemetryEvent::SharedHit {
                access,
                part,
                owner,
            } => {
                let (part, owner) = (part.raw(), owner.raw());
                let _ = write!(
                    s,
                    "{{\"record\":\"shared_hit\",\"access\":{access},\"part\":{part},\"owner\":{owner}}}"
                );
            }
            TelemetryEvent::OwnershipTransfer { access, part, from } => {
                let (part, from) = (part.raw(), from.raw());
                let _ = write!(
                    s,
                    "{{\"record\":\"transfer\",\"access\":{access},\"part\":{part},\"from\":{from}}}"
                );
            }
            TelemetryEvent::Replica { access, part } => {
                let part = part.raw();
                let _ = write!(
                    s,
                    "{{\"record\":\"replica\",\"access\":{access},\"part\":{part}}}"
                );
            }
        },
    }
    s
}

/// Parses one flat JSON object (as produced by [`to_json_line`]) back into
/// a record; `None` on malformed input.
pub fn from_json_line(line: &str) -> Option<TelemetryRecord> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = std::collections::HashMap::new();
    for kv in body.split(',') {
        let (k, v) = kv.split_once(':')?;
        let k = k.trim().strip_prefix('"')?.strip_suffix('"')?;
        let v = v.trim().trim_matches('"');
        fields.insert(k, v);
    }
    let access: u64 = fields.get("access")?.parse().ok()?;
    let part = |fields: &std::collections::HashMap<&str, &str>| -> Option<PartitionId> {
        fields
            .get("part")?
            .parse::<u16>()
            .ok()
            .map(PartitionId::from_raw)
    };
    match *fields.get("record")? {
        "sample" => Some(TelemetryRecord::Sample(PartitionSample {
            access,
            part: part(&fields)?,
            actual: fields.get("actual")?.parse().ok()?,
            target: fields.get("target")?.parse().ok()?,
            aperture: fields.get("aperture")?.parse().ok()?,
            window: fields.get("window")?.parse().ok()?,
            churn: fields.get("churn")?.parse().ok()?,
            // Absent keys mean a zero-sharing sample (or an old trace).
            shared: fields
                .get("shared")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            transfers: fields
                .get("transfers")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        })),
        "demotion" => Some(TelemetryRecord::Event(TelemetryEvent::Demotion {
            access,
            part: part(&fields)?,
        })),
        "promotion" => Some(TelemetryRecord::Event(TelemetryEvent::Promotion {
            access,
            part: part(&fields)?,
        })),
        "eviction" => Some(TelemetryRecord::Event(TelemetryEvent::Eviction {
            access,
            part: part(&fields)?,
            forced: fields.get("forced")?.parse().ok()?,
        })),
        "setpoint" => Some(TelemetryRecord::Event(TelemetryEvent::SetpointAdjust {
            access,
            part: part(&fields)?,
            direction: fields.get("direction")?.parse().ok()?,
            window: fields.get("window")?.parse().ok()?,
        })),
        "aperture" => Some(TelemetryRecord::Event(TelemetryEvent::ApertureUpdate {
            access,
            part: part(&fields)?,
            aperture: fields.get("aperture")?.parse().ok()?,
        })),
        "scrub" => Some(TelemetryRecord::Event(TelemetryEvent::Scrub {
            access,
            repairs: fields.get("repairs")?.parse().ok()?,
        })),
        "created" => Some(TelemetryRecord::Event(TelemetryEvent::PartitionCreated {
            access,
            part: part(&fields)?,
            target: fields.get("target")?.parse().ok()?,
        })),
        "destroyed" => Some(TelemetryRecord::Event(TelemetryEvent::PartitionDestroyed {
            access,
            part: part(&fields)?,
        })),
        "shared_hit" => Some(TelemetryRecord::Event(TelemetryEvent::SharedHit {
            access,
            part: part(&fields)?,
            owner: fields
                .get("owner")?
                .parse::<u16>()
                .ok()
                .map(PartitionId::from_raw)?,
        })),
        "transfer" => Some(TelemetryRecord::Event(TelemetryEvent::OwnershipTransfer {
            access,
            part: part(&fields)?,
            from: fields
                .get("from")?
                .parse::<u16>()
                .ok()
                .map(PartitionId::from_raw)?,
        })),
        "replica" => Some(TelemetryRecord::Event(TelemetryEvent::Replica {
            access,
            part: part(&fields)?,
        })),
        _ => None,
    }
}

/// A JSON Lines sink over any writer: one flat object per record.
pub struct JsonSink<W: Write + Send> {
    w: W,
    bank: Option<u16>,
    err: Option<std::io::Error>,
}

impl JsonSink<BufWriter<File>> {
    /// Creates (truncating) a JSON Lines trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        Self {
            w,
            bank: None,
            err: None,
        }
    }

    /// Remembers the first I/O failure (later ones are usually cascades).
    fn note(&mut self, r: std::io::Result<()>) {
        if let (Err(e), None) = (r, &self.err) {
            self.err = Some(e);
        }
    }

    fn write_line(&mut self, rec: &TelemetryRecord) {
        let mut line = to_json_line(rec);
        if let Some(b) = self.bank {
            // Extra keys pass through `from_json_line` untouched.
            line.pop();
            let _ = write!(line, ",\"bank\":{b}}}");
        }
        let r = writeln!(self.w, "{line}");
        self.note(r);
    }
}

impl<W: Write + Send> TelemetrySink for JsonSink<W> {
    fn record_event(&mut self, ev: &TelemetryEvent) {
        self.write_line(&TelemetryRecord::Event(*ev));
    }
    fn record_sample(&mut self, s: &PartitionSample) {
        self.write_line(&TelemetryRecord::Sample(*s));
    }
    fn flush(&mut self) {
        let r = self.w.flush();
        self.note(r);
    }
    fn io_error(&self) -> Option<String> {
        self.err.as_ref().map(|e| e.to_string())
    }
    fn set_bank(&mut self, bank: Option<u16>) {
        self.bank = bank;
    }
}

impl<W: Write + Send> Drop for JsonSink<W> {
    fn drop(&mut self) {
        // `BufWriter`'s own drop flushes but swallows the error; flush
        // explicitly and say so when the trace lost data.
        let r = self.w.flush();
        self.note(r);
        if let Some(e) = &self.err {
            eprintln!("telemetry: JSON trace lost data: {e}");
        }
    }
}

/// Default sampling period (accesses between per-partition snapshots).
pub const DEFAULT_SAMPLE_PERIOD: u64 = 4096;

/// The producer-side telemetry handle a cache embeds.
///
/// Owns the sink, schedules periodic samples, and meters per-partition
/// churn from the event stream so producers report raw events only. All
/// hot-path entry points reduce to one predictable branch when disabled.
pub struct Telemetry {
    sink: Option<Box<dyn TelemetrySink>>,
    sample_period: u64,
    next_sample: u64,
    /// Lines lost per partition since the last sample; index
    /// `num_partitions` holds the unmanaged region.
    churn: Vec<u64>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.sink.is_some())
            .field("sample_period", &self.sample_period)
            .finish()
    }
}

impl Telemetry {
    /// No sink: every entry point is a single null-check.
    pub fn disabled() -> Self {
        Self {
            sink: None,
            sample_period: DEFAULT_SAMPLE_PERIOD,
            next_sample: u64::MAX,
            churn: Vec::new(),
        }
    }

    /// Wraps `sink`, emitting samples every `sample_period` accesses (0
    /// falls back to [`DEFAULT_SAMPLE_PERIOD`]).
    pub fn new(sink: Box<dyn TelemetrySink>, sample_period: u64) -> Self {
        let period = if sample_period == 0 {
            DEFAULT_SAMPLE_PERIOD
        } else {
            sample_period
        };
        Self {
            sink: Some(sink),
            sample_period: period,
            next_sample: period,
            churn: Vec::new(),
        }
    }

    /// Sizes the churn meters for `partitions` partitions (+1 slot for the
    /// unmanaged region, always the last index). Caches call this at
    /// installation and again when `create_partition` grows the slot table;
    /// rebinding is grow-only and keeps accumulated meters (the unmanaged
    /// slot migrates to the new tail), so mid-period lifecycle changes do
    /// not lose churn. Events for out-of-range partitions are still
    /// recorded, just not churn-metered.
    pub fn bind(&mut self, partitions: usize) {
        let want = partitions + 1;
        if self.churn.is_empty() {
            self.churn = vec![0; want];
        } else if want > self.churn.len() {
            let um = self.churn.pop().unwrap_or(0);
            self.churn.resize(want - 1, 0);
            self.churn.push(um);
        }
    }

    /// Whether a sink is installed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The first I/O error the sink has absorbed, if any (see
    /// [`TelemetrySink::io_error`]). Check after [`Self::flush`] to learn
    /// whether the trace on disk is complete.
    pub fn io_error(&self) -> Option<String> {
        self.sink.as_ref().and_then(|s| s.io_error())
    }

    /// The sampling period in accesses.
    pub fn sample_period(&self) -> u64 {
        self.sample_period
    }

    /// Records one event, metering demotions and evictions into the
    /// per-partition churn counters.
    #[inline]
    pub fn event(&mut self, ev: TelemetryEvent) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        match ev {
            TelemetryEvent::Demotion { part, .. } | TelemetryEvent::Eviction { part, .. } => {
                let idx = if part.is_unmanaged() {
                    self.churn.len().saturating_sub(1)
                } else {
                    part.index()
                };
                if let Some(c) = self.churn.get_mut(idx) {
                    *c += 1;
                }
            }
            _ => {}
        }
        sink.record_event(&ev);
    }

    /// Whether a sampling point has been reached at `access`. When it
    /// returns `true` the producer must emit one [`PartitionSample`] per
    /// partition (via [`Self::sample`]) — the schedule advances here.
    #[inline]
    pub fn sample_due(&mut self, access: u64) -> bool {
        match self.sink {
            None => false,
            Some(_) => {
                if access < self.next_sample {
                    return false;
                }
                // Skip missed points rather than bursting to catch up.
                let periods = access / self.sample_period + 1;
                self.next_sample = periods * self.sample_period;
                true
            }
        }
    }

    /// Records one sample. The caller fills everything but `churn`, which
    /// is taken (and reset) from the event-derived meter for `part`.
    pub fn sample(&mut self, mut s: PartitionSample) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let idx = if s.part.is_unmanaged() {
            self.churn.len().saturating_sub(1)
        } else {
            s.part.index()
        };
        if let Some(c) = self.churn.get_mut(idx) {
            s.churn = *c;
            *c = 0;
        }
        sink.record_sample(&s);
    }

    /// Flushes the sink's buffered output.
    pub fn flush(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            sink.flush();
        }
    }

    /// Splits the handle into its sink (if any) and sample period, e.g. so
    /// a banked cache can wrap the sink in a [`SharedSink`] and rebuild one
    /// `Telemetry` per bank with the same period. No flush happens here; the
    /// sink keeps its buffered state.
    pub fn into_parts(mut self) -> (Option<Box<dyn TelemetrySink>>, u64) {
        (self.sink.take(), self.sample_period)
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.flush();
    }
}

impl vantage_snapshot::Snapshot for Telemetry {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        // The sink itself (file handles, rings) cannot be serialized; what
        // makes a resumed trace bit-identical is the sampling schedule and
        // the churn meters, which carry across a checkpoint boundary.
        enc.put_bool(self.sink.is_some());
        enc.put_u64(self.sample_period);
        enc.put_u64(self.next_sample);
        enc.put_u64_slice(&self.churn);
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        let was_enabled = dec.take_bool()?;
        let period = dec.take_u64()?;
        let next = dec.take_u64()?;
        let churn = dec.take_u64_vec()?;
        if period == 0 {
            return Err(dec.invalid("zero telemetry sample period"));
        }
        // The restored schedule only applies if the resuming run installed a
        // sink again (the sink is reinstalled out-of-band, before restore);
        // a disabled handle stays inert regardless of what the saver had.
        if self.sink.is_some() && was_enabled {
            self.sample_period = period;
            self.next_sample = next;
            self.churn = churn;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(access: u64, part: PartitionId) -> PartitionSample {
        PartitionSample {
            access,
            part,
            actual: 100 + u64::from(part.raw()),
            target: 128,
            aperture: 0.25,
            window: 90,
            churn: 0,
            shared: 0,
            transfers: 0,
        }
    }

    fn representative_records() -> Vec<TelemetryRecord> {
        vec![
            TelemetryRecord::Sample(sample(4096, PartitionId::from_index(0))),
            TelemetryRecord::Sample(sample(4096, UNMANAGED_PART)),
            TelemetryRecord::Event(TelemetryEvent::Demotion {
                access: 1,
                part: PartitionId::from_index(3),
            }),
            TelemetryRecord::Event(TelemetryEvent::Promotion {
                access: 2,
                part: PartitionId::from_index(0),
            }),
            TelemetryRecord::Event(TelemetryEvent::Eviction {
                access: 3,
                part: UNMANAGED_PART,
                forced: false,
            }),
            TelemetryRecord::Event(TelemetryEvent::Eviction {
                access: 4,
                part: PartitionId::from_index(1),
                forced: true,
            }),
            TelemetryRecord::Event(TelemetryEvent::SetpointAdjust {
                access: 5,
                part: PartitionId::from_index(2),
                direction: -1,
                window: 127,
            }),
            TelemetryRecord::Event(TelemetryEvent::ApertureUpdate {
                access: 6,
                part: PartitionId::from_index(2),
                aperture: 0.5,
            }),
            TelemetryRecord::Event(TelemetryEvent::Scrub {
                access: 7,
                repairs: 9,
            }),
            TelemetryRecord::Event(TelemetryEvent::PartitionCreated {
                access: 8,
                part: PartitionId::from_index(40),
                target: 2048,
            }),
            TelemetryRecord::Event(TelemetryEvent::PartitionDestroyed {
                access: 9,
                part: PartitionId::from_index(40),
            }),
            TelemetryRecord::Event(TelemetryEvent::SharedHit {
                access: 10,
                part: PartitionId::from_index(1),
                owner: PartitionId::from_index(2),
            }),
            TelemetryRecord::Event(TelemetryEvent::OwnershipTransfer {
                access: 10,
                part: PartitionId::from_index(1),
                from: PartitionId::from_index(2),
            }),
            TelemetryRecord::Event(TelemetryEvent::Replica {
                access: 11,
                part: PartitionId::from_index(3),
            }),
            TelemetryRecord::Sample(PartitionSample {
                shared: 17,
                transfers: 4,
                ..sample(8192, PartitionId::from_index(1))
            }),
        ]
    }

    #[test]
    fn ring_wraps_and_counts_overwrites() {
        let (mut sink, reader) = RingSink::with_capacity(4);
        for i in 0..10u64 {
            sink.record_event(&TelemetryEvent::Demotion {
                access: i,
                part: PartitionId::from_index(0),
            });
        }
        assert_eq!(reader.len(), 4);
        assert_eq!(reader.overwritten(), 6);
        let recs = reader.records();
        // Oldest-first: accesses 6..10 survive.
        let accesses: Vec<u64> = recs.iter().map(TelemetryRecord::access).collect();
        assert_eq!(accesses, vec![6, 7, 8, 9]);
        assert!(!reader.is_empty());
    }

    #[test]
    fn json_round_trips_every_record_kind() {
        for rec in representative_records() {
            let line = to_json_line(&rec);
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            let back = from_json_line(&line).unwrap_or_else(|| panic!("parse {line}"));
            assert_eq!(back, rec, "round trip of {line}");
        }
        assert_eq!(from_json_line("not json"), None);
        assert_eq!(from_json_line("{\"record\":\"bogus\",\"access\":1}"), None);
    }

    /// A writer that fails every operation (for the error-surfacing tests).
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe closed",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe closed",
            ))
        }
    }

    #[test]
    fn file_sinks_surface_io_errors_instead_of_swallowing_them() {
        let mut sink = JsonSink::new(BrokenPipe);
        assert_eq!(sink.io_error(), None);
        sink.record_event(&TelemetryEvent::Demotion {
            access: 1,
            part: PartitionId::from_index(0),
        });
        let err = sink.io_error().expect("write failure surfaced");
        assert!(err.contains("pipe closed"), "{err}");

        let mut sink = JsonSink::new(BrokenPipe);
        sink.flush();
        assert!(sink
            .io_error()
            .expect("flush failure surfaced")
            .contains("pipe closed"));

        // The producer handle forwards the sink's sticky error.
        let mut tele = Telemetry::new(Box::new(JsonSink::new(BrokenPipe)), 0);
        tele.event(TelemetryEvent::Scrub {
            access: 1,
            repairs: 0,
        });
        tele.flush();
        assert!(tele.io_error().is_some());

        // A shared (banked) wrapper forwards it too.
        let shared = SharedSink::new(Box::new(JsonSink::new(BrokenPipe)));
        let mut tagged = shared.with_bank(3);
        tagged.record_event(&TelemetryEvent::Demotion {
            access: 2,
            part: PartitionId::from_index(1),
        });
        assert!(tagged.io_error().is_some());

        // In-memory sinks never error.
        let (ring, _reader) = RingSink::with_capacity(4);
        assert_eq!(ring.io_error(), None);
    }

    #[test]
    fn json_sink_emits_one_object_per_line() {
        let mut sink = JsonSink::new(Vec::new());
        for rec in representative_records() {
            match rec {
                TelemetryRecord::Event(ev) => sink.record_event(&ev),
                TelemetryRecord::Sample(s) => sink.record_sample(&s),
            }
        }
        sink.flush();
        let text = String::from_utf8(sink.w.clone()).unwrap();
        let parsed: Vec<TelemetryRecord> = text.lines().filter_map(from_json_line).collect();
        assert_eq!(parsed, representative_records());
    }

    #[test]
    fn telemetry_meters_churn_per_partition() {
        let (sink, reader) = RingSink::with_capacity(64);
        let mut tele = Telemetry::new(Box::new(sink), 8);
        tele.bind(2);
        assert!(tele.enabled());
        tele.event(TelemetryEvent::Demotion {
            access: 1,
            part: PartitionId::from_index(0),
        });
        tele.event(TelemetryEvent::Demotion {
            access: 2,
            part: PartitionId::from_index(0),
        });
        tele.event(TelemetryEvent::Eviction {
            access: 3,
            part: UNMANAGED_PART,
            forced: false,
        });
        tele.event(TelemetryEvent::Promotion {
            access: 4,
            part: PartitionId::from_index(0),
        }); // not churn
        assert!(!tele.sample_due(7));
        assert!(tele.sample_due(8));
        tele.sample(sample(8, PartitionId::from_index(0)));
        tele.sample(sample(8, PartitionId::from_index(1)));
        tele.sample(sample(8, UNMANAGED_PART));
        let churns: Vec<(PartitionId, u64)> = reader
            .records()
            .iter()
            .filter_map(|r| match r {
                TelemetryRecord::Sample(s) => Some((s.part, s.churn)),
                _ => None,
            })
            .collect();
        assert_eq!(
            churns,
            vec![
                (PartitionId::from_index(0), 2),
                (PartitionId::from_index(1), 0),
                (UNMANAGED_PART, 1)
            ]
        );
        // Meters reset after sampling.
        assert!(tele.sample_due(16));
        tele.sample(sample(16, PartitionId::from_index(0)));
        let last = reader.records();
        match last.last().unwrap() {
            TelemetryRecord::Sample(s) => assert_eq!(s.churn, 0),
            _ => panic!("expected sample"),
        }
    }

    #[test]
    fn sampling_schedule_skips_missed_points() {
        let (sink, _reader) = RingSink::with_capacity(4);
        let mut tele = Telemetry::new(Box::new(sink), 100);
        assert!(!tele.sample_due(99));
        assert!(tele.sample_due(100));
        // A long gap schedules the next period after `access`, not a burst.
        assert!(!tele.sample_due(150));
        assert!(tele.sample_due(750));
        assert!(!tele.sample_due(799));
        assert!(tele.sample_due(800));
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let mut tele = Telemetry::disabled();
        assert!(!tele.enabled());
        tele.bind(4);
        tele.event(TelemetryEvent::Demotion {
            access: 1,
            part: PartitionId::from_index(0),
        });
        assert!(!tele.sample_due(u64::MAX - 1));
        tele.sample(sample(1, PartitionId::from_index(0)));
        tele.flush();
    }

    #[test]
    fn shared_sink_clones_funnel_into_one_backend() {
        let (ring, reader) = RingSink::with_capacity(8);
        let shared = SharedSink::new(Box::new(ring));
        let mut bank0 = shared.with_bank(0);
        let mut bank1 = shared.with_bank(1);
        bank0.record_event(&TelemetryEvent::Demotion {
            access: 1,
            part: PartitionId::from_index(2),
        });
        bank1.record_event(&TelemetryEvent::Promotion {
            access: 2,
            part: PartitionId::from_index(0),
        });
        bank0.record_sample(&sample(3, PartitionId::from_index(0)));
        assert_eq!(reader.len(), 3, "all clones reach the shared backend");
    }

    #[test]
    fn json_bank_tags_round_trip_and_are_ignored_by_parser() {
        let mut sink = JsonSink::new(Vec::new());
        sink.set_bank(Some(7));
        sink.record_event(&TelemetryEvent::Scrub {
            access: 9,
            repairs: 0,
        });
        sink.record_sample(&sample(10, PartitionId::from_index(0)));
        sink.flush();
        let text = String::from_utf8(sink.w.clone()).unwrap();
        for line in text.lines() {
            assert!(line.ends_with(",\"bank\":7}"), "{line}");
        }
        let parsed: Vec<TelemetryRecord> = text.lines().filter_map(from_json_line).collect();
        assert_eq!(
            parsed,
            vec![
                TelemetryRecord::Event(TelemetryEvent::Scrub {
                    access: 9,
                    repairs: 0
                }),
                TelemetryRecord::Sample(sample(10, PartitionId::from_index(0))),
            ]
        );
    }

    #[test]
    fn shared_sink_try_unwrap_requires_sole_ownership() {
        let (ring, reader) = RingSink::with_capacity(8);
        let shared = SharedSink::new(Box::new(ring));
        let mut tagged = shared.with_bank(1);
        tagged.record_event(&TelemetryEvent::Demotion {
            access: 5,
            part: PartitionId::from_index(0),
        });
        let shared = match shared.try_unwrap() {
            Err(s) => s,
            Ok(_) => panic!("unwrap should fail while a clone is alive"),
        };
        drop(tagged);
        let _inner = shared.try_unwrap().expect("now sole owner");
        // RingSink ignores bank tags, so the record is byte-identical to a
        // serial run's.
        assert_eq!(
            reader.records(),
            vec![TelemetryRecord::Event(TelemetryEvent::Demotion {
                access: 5,
                part: PartitionId::from_index(0)
            })]
        );
    }

    #[test]
    fn into_parts_splits_sink_and_period() {
        let (sink, reader) = RingSink::with_capacity(4);
        let tele = Telemetry::new(Box::new(sink), 512);
        let (sink, period) = tele.into_parts();
        assert_eq!(period, 512);
        let mut sink = sink.expect("sink present");
        sink.record_event(&TelemetryEvent::Demotion {
            access: 1,
            part: PartitionId::from_index(0),
        });
        assert_eq!(reader.len(), 1);
        let (none, period) = Telemetry::disabled().into_parts();
        assert!(none.is_none());
        assert_eq!(period, DEFAULT_SAMPLE_PERIOD);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut tele = Telemetry::new(Box::new(NullSink), 0);
        assert_eq!(tele.sample_period(), DEFAULT_SAMPLE_PERIOD);
        tele.bind(1);
        tele.event(TelemetryEvent::Scrub {
            access: 1,
            repairs: 0,
        });
        assert!(tele.sample_due(DEFAULT_SAMPLE_PERIOD));
        tele.sample(sample(2, PartitionId::from_index(0)));
    }
}
