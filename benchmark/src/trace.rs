//! Spans around the calls the harness makes into a layer.
//!
//! The harness times every call into the system under test anyway (the
//! slice's busy time is the sum of its calls); with tracing on, the same
//! two timestamps are also kept as a span — layer, name, start, end, the
//! span that caused it, and the slice it belongs to — in memory, and
//! written out as JSON lines when the run ends. Spans are per call (a
//! batch, a `run_for`, a lifecycle call), never per access.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a span nothing caused.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub slice: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder. `on` is flipped per slice by the driver: a traced run
/// records every other slice, and the untraced slices in between are what
/// `run.trace_overhead_pct` compares against.
pub struct Tracer {
    t0: Instant,
    pub on: bool,
    pub slice: u32,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            on: false,
            slice: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span that will have children; returns its id ([`ROOT`] when
    /// tracing is off, which children then carry harmlessly).
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> u32 {
        if !self.on {
            return ROOT;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns: now,
            end_ns: now,
            parent: ROOT,
            slice: self.slice,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span returned by [`open`](Self::open).
    pub fn close(&mut self, id: u32) {
        if id != ROOT {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` — one call into `layer` — and returns its result with the
    /// seconds it took, recording a span under `parent` when tracing is on.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        if self.on {
            self.spans.push(Span {
                layer,
                name,
                start_ns: (start - self.t0).as_nanos() as u64,
                end_ns: (end - self.t0).as_nanos() as u64,
                parent,
                slice: self.slice,
            });
        }
        (r, (end - start).as_secs_f64())
    }

    /// Writes the spans as JSON lines (`id` is the line's index, `parent`
    /// is -1 for a root).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{{\"id\": {id}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"slice\": {}}}",
                s.layer, s.name, s.start_ns, s.end_ns, s.slice
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_only_record_when_on() {
        let mut tr = Tracer::new();
        let (_, secs) = tr.call("core", "access_batch", ROOT, || 1 + 1);
        assert!(secs >= 0.0);
        assert!(tr.spans.is_empty(), "off: timed but not recorded");

        tr.on = true;
        tr.slice = 3;
        let parent = tr.open("harness", "slice");
        tr.call("core", "access_batch", parent, || ());
        tr.call("core", "access_batch", parent, || ());
        tr.close(parent);
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[1].parent, 0);
        assert!(tr.spans[0].end_ns >= tr.spans[2].end_ns);
        assert!(tr.spans.iter().all(|s| s.slice == 3));
    }
}
