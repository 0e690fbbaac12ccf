//! Execution engines: one API over the serial, batched and pipelined ways
//! of driving an [`Llc`] through a request stream.
//!
//! A driver can feed a cache three ways:
//!
//! * **Serial** — one [`Llc::access`] call per request; the timing-faithful
//!   style the cycle-level simulator needs (each outcome feeds back into
//!   core timing before the next request exists).
//! * **Batched** — [`Llc::access_batch`] over fixed driver chunks; banked
//!   caches regroup each chunk by bank and amortize tag walks with
//!   prefetch pipelining.
//! * **Pipelined** — [`PipelinedBankedLlc`]: requests stream into per-bank
//!   ring buffers and are consumed in long bank-major runs, with the only
//!   true barrier at the epoch boundary. It is also the one engine with a
//!   worker pool (`bank_jobs > 1`), so a banked machine asking for workers
//!   is built on it whichever kind was named.
//!
//! [`EngineKind`] names the style (config files, `--engine` flags);
//! [`Engine`] borrows a cache and drives windows of requests through the
//! chosen style behind one `drive`/`barrier` surface, so harnesses and
//! simulators select an engine at runtime without forking their loops. All
//! three engines produce bit-identical outcomes, statistics and partition
//! sizes on the same trace — the engine choice is a throughput/fidelity
//! trade, never a simulation-results change.

use std::fmt;

use vantage_partitioning::{AccessOutcome, AccessRequest, Llc, PipelinedBankedLlc};

/// Names an execution engine; the unit of selection for config knobs and
/// `--engine` command-line flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// One `access` call per request (timing-faithful; the simulator's
    /// event loop interleaves core timing between requests).
    Serial,
    /// `access_batch` over fixed driver chunks (the established
    /// throughput path for banked caches).
    #[default]
    Batched,
    /// Ring-buffered producer/consumer with bank-major drains
    /// ([`PipelinedBankedLlc`]); barriers only at epoch boundaries.
    Pipelined,
}

impl EngineKind {
    /// Every engine, in documentation order.
    pub const ALL: [EngineKind; 3] = [Self::Serial, Self::Batched, Self::Pipelined];

    /// The flag/config spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::Serial => "serial",
            Self::Batched => "batched",
            Self::Pipelined => "pipelined",
        }
    }

    /// Parses a flag/config spelling (case-sensitive, as listed by
    /// [`EngineKind::ALL`]).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A borrowed cache plus the chosen way of driving requests through it.
///
/// `drive` appends outcomes in request order for every engine, so callers
/// digest or inspect them uniformly; `barrier` quiesces engines that queue
/// work (a no-op for serial/batched). Construct one per window or hold one
/// across a run — the engine owns no simulation state.
///
/// # Example
///
/// ```
/// use vantage::engine::{Engine, EngineKind};
/// use vantage_cache::SetAssocArray;
/// use vantage_partitioning::{AccessRequest, BaselineLlc, Llc, PartitionId, RankPolicy};
///
/// let mut llc = BaselineLlc::try_new(
///     Box::new(SetAssocArray::hashed(1024, 16, 1)),
///     1,
///     RankPolicy::Lru,
/// ).expect("valid baseline geometry");
/// let reqs: Vec<AccessRequest> = (0..100)
///     .map(|i| AccessRequest::read(PartitionId::from_index(0), vantage_cache::LineAddr(i)))
///     .collect();
/// let mut out = Vec::new();
/// let mut eng = Engine::Batched { llc: &mut llc, chunk: 32 };
/// eng.drive(&reqs, &mut out);
/// eng.barrier();
/// assert_eq!(out.len(), 100);
/// assert_eq!(eng.kind(), EngineKind::Batched);
/// ```
pub enum Engine<'a> {
    /// Per-access serial drive over any cache.
    Serial(&'a mut dyn Llc),
    /// Chunked `access_batch` drive over any cache (`chunk` = 0 serves the
    /// whole window in one call).
    Batched {
        /// The driven cache.
        llc: &'a mut dyn Llc,
        /// Requests per `access_batch` call (0 = whole window).
        chunk: usize,
    },
    /// Ring-buffered drive over the pipelined banked engine.
    Pipelined(&'a mut PipelinedBankedLlc),
}

impl Engine<'_> {
    /// Which engine this is.
    pub fn kind(&self) -> EngineKind {
        match self {
            Self::Serial(_) => EngineKind::Serial,
            Self::Batched { .. } => EngineKind::Batched,
            Self::Pipelined(_) => EngineKind::Pipelined,
        }
    }

    /// Serves a window of requests through the engine's native path,
    /// appending outcomes to `out` in request order.
    pub fn drive(&mut self, reqs: &[AccessRequest], out: &mut Vec<AccessOutcome>) {
        match self {
            Self::Serial(llc) => {
                out.reserve(reqs.len());
                for &r in reqs {
                    out.push(llc.access(r));
                }
            }
            Self::Batched { llc, chunk } => {
                if *chunk == 0 {
                    llc.access_batch(reqs, out);
                } else {
                    for c in reqs.chunks(*chunk) {
                        llc.access_batch(c, out);
                    }
                }
            }
            Self::Pipelined(llc) => llc.access_batch(reqs, out),
        }
    }

    /// Quiesces the engine: after this, every driven request has been
    /// served and is visible to stats, snapshots and repartitioning. A
    /// no-op for engines that never queue (serial, batched).
    pub fn barrier(&mut self) {
        if let Self::Pipelined(llc) = self {
            llc.barrier();
        }
    }

    /// The driven cache, as the common trait object.
    pub fn llc_mut(&mut self) -> &mut dyn Llc {
        match self {
            Self::Serial(llc) => *llc,
            Self::Batched { llc, .. } => *llc,
            Self::Pipelined(llc) => *llc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_cache::{LineAddr, PartitionId, ZArray};
    use vantage_partitioning::{BankedLlc, BaselineLlc, RankPolicy};

    fn banks(n: usize) -> Vec<Box<dyn Llc>> {
        (0..n as u64)
            .map(|b| {
                Box::new(
                    BaselineLlc::try_new(Box::new(ZArray::new(256, 4, 16, b)), 2, RankPolicy::Lru)
                        .expect("valid baseline geometry"),
                ) as Box<dyn Llc>
            })
            .collect()
    }

    fn reqs(n: u64) -> Vec<AccessRequest> {
        (0..n)
            .map(|i| {
                AccessRequest::read(
                    PartitionId::from_index((i % 2) as usize),
                    LineAddr((i * 2654435761) % 1500),
                )
            })
            .collect()
    }

    #[test]
    fn kinds_parse_and_display_round_trip() {
        for k in EngineKind::ALL {
            assert_eq!(EngineKind::parse(k.name()), Some(k));
            assert_eq!(format!("{k}"), k.name());
        }
        assert_eq!(EngineKind::parse("warp-drive"), None);
        assert_eq!(EngineKind::default(), EngineKind::Batched);
    }

    #[test]
    fn all_engines_agree_on_outcomes_and_stats() {
        let trace = reqs(10_000);
        let mut outs = Vec::new();
        let mut all_stats = Vec::new();
        for kind in EngineKind::ALL {
            let mut serial_llc;
            let mut batched_llc;
            let mut pipe_llc;
            let mut eng = match kind {
                EngineKind::Serial => {
                    serial_llc = BankedLlc::try_new(banks(4), 7).expect("valid bank set");
                    Engine::Serial(&mut serial_llc)
                }
                EngineKind::Batched => {
                    batched_llc = BankedLlc::try_new(banks(4), 7).expect("valid bank set");
                    Engine::Batched {
                        llc: &mut batched_llc,
                        chunk: 777,
                    }
                }
                EngineKind::Pipelined => {
                    pipe_llc = vantage_partitioning::PipelinedBankedLlc::try_new(banks(4), 7, 2)
                        .expect("valid bank set");
                    Engine::Pipelined(&mut pipe_llc)
                }
            };
            assert_eq!(eng.kind(), kind);
            let mut out = Vec::new();
            for window in trace.chunks(3001) {
                eng.drive(window, &mut out);
            }
            eng.barrier();
            let s = eng.llc_mut().stats_mut();
            all_stats.push((s.hits.clone(), s.misses.clone(), s.evictions));
            outs.push(out);
        }
        assert_eq!(outs[0], outs[1], "serial vs batched");
        assert_eq!(outs[0], outs[2], "serial vs pipelined");
        assert_eq!(all_stats[0], all_stats[1]);
        assert_eq!(all_stats[0], all_stats[2]);
    }

    #[test]
    fn batched_chunk_zero_serves_whole_window() {
        let trace = reqs(500);
        let mut llc = BankedLlc::try_new(banks(2), 3).expect("valid bank set");
        let mut eng = Engine::Batched {
            llc: &mut llc,
            chunk: 0,
        };
        let mut out = Vec::new();
        eng.drive(&trace, &mut out);
        assert_eq!(out.len(), 500);
    }
}
