//! Benchmark trajectory recording.
//!
//! The CI-gated harnesses (`perf`, `perf-parallel`, `service`, `security`)
//! append run entries to a JSON trajectory file at the repo root
//! (`BENCH_hotpath.json`, `BENCH_parallel.json`, `BENCH_service.json`,
//! `BENCH_security.json`). [`BenchRecord`] is the one writer they share:
//! it stamps the common preamble every entry carries
//! (timestamp, quick flag, seed), lets the harness render its own sections
//! into the body (the workspace is offline and vendors no serde, so
//! entries are hand-rolled JSON), and appends the finished entry
//! atomically via [`append_entry`] — temp file + fsync + rename, with
//! not-an-array files quarantined under a `.corrupt` suffix instead of
//! blocking the run.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One in-progress trajectory entry: the shared preamble plus whatever
/// sections the harness renders into [`BenchRecord::body_mut`]. Call
/// [`BenchRecord::finish`] when done and hand the string to
/// [`append_entry`]; the record closes the entry's braces itself, so
/// section writers end on their last section's closing `}`.
pub struct BenchRecord {
    body: String,
}

impl BenchRecord {
    /// Opens an entry stamped with the current wall-clock time.
    pub fn new(quick: bool, seed: u64) -> Self {
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Self::with_timestamp(quick, seed, ts)
    }

    /// Opens an entry with an explicit timestamp (test support).
    pub fn with_timestamp(quick: bool, seed: u64, timestamp: u64) -> Self {
        let mut body = String::new();
        let _ = write!(
            body,
            "  {{\n    \"timestamp\": {timestamp},\n    \"quick\": {quick},\n    \
             \"seed\": {seed},\n"
        );
        Self { body }
    }

    /// The entry body, for the harness's own `write!` sections. The
    /// preamble ends with `,\n`, so the first section starts at four-space
    /// indent; the last section should end on its closing `}` with no
    /// trailing newline.
    pub fn body_mut(&mut self) -> &mut String {
        &mut self.body
    }

    /// Closes the entry and returns it as a string.
    pub fn finish(mut self) -> String {
        self.body.push_str("\n  }");
        self.body
    }
}

/// Appends `entry` to the JSON array in `path`, creating the file if needed.
///
/// The file is always a top-level JSON array of run entries. Appending
/// splices before the final `]` and replaces the file atomically (temp +
/// fsync + rename), so a crash mid-append leaves either the old trajectory
/// or the new one — never a torn file. A file that is not a well-formed
/// array (e.g. a torn write from before this hardening) is quarantined
/// under a `.corrupt` suffix with a warning and the trajectory restarted;
/// corruption never blocks recording new data and never errors the run.
pub fn append_entry(path: &Path, entry: &str) -> io::Result<()> {
    let body = match std::fs::read_to_string(path) {
        Ok(old) => {
            let trimmed = old.trim_end();
            if let Some(prefix) = trimmed.strip_suffix(']') {
                let prefix = prefix.trim_end();
                if prefix.ends_with('[') {
                    // Empty array.
                    format!("{prefix}\n{entry}\n]\n")
                } else {
                    format!("{prefix},\n{entry}\n]\n")
                }
            } else {
                let quarantine = path.with_extension("json.corrupt");
                eprintln!(
                    "warning: {} is not a JSON array; quarantining the old \
                     contents to {} and restarting the trajectory",
                    path.display(),
                    quarantine.display()
                );
                std::fs::write(&quarantine, &old)?;
                format!("[\n{entry}\n]\n")
            }
        }
        Err(_) => format!("[\n{entry}\n]\n"),
    };
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut f, body.as_bytes())?;
        // Flush file contents to stable storage before the rename makes
        // them visible, so the rename can never publish a torn file.
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_carries_preamble_and_closes_the_entry() {
        let mut rec = BenchRecord::with_timestamp(true, 42, 1_000);
        let _ = write!(rec.body_mut(), "    \"section\": {{\"x\": 1}}");
        let entry = rec.finish();
        assert!(entry.starts_with("  {\n    \"timestamp\": 1000,\n"));
        assert!(entry.contains("\"quick\": true"));
        assert!(entry.contains("\"seed\": 42"));
        assert!(entry.ends_with("\"section\": {\"x\": 1}\n  }"));
    }

    #[test]
    fn entries_append_into_a_json_array() {
        let dir = std::env::temp_dir().join(format!("vantage-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let _ = std::fs::remove_file(&path);
        for ts in [1, 2] {
            let mut rec = BenchRecord::with_timestamp(false, 7, ts);
            let _ = write!(rec.body_mut(), "    \"run\": {ts}");
            append_entry(&path, &rec.finish()).unwrap();
        }
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.trim_start().starts_with('['));
        assert!(body.trim_end().ends_with(']'));
        assert_eq!(body.matches("\"timestamp\"").count(), 2);
        assert!(body.contains("\"run\": 1") && body.contains("\"run\": 2"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_trajectory_is_quarantined_not_fatal() {
        let dir = std::env::temp_dir().join(format!("vantage-record-q-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let quarantine = dir.join("bench.json.corrupt");
        std::fs::write(&path, "{ torn write, no closing bracke").unwrap();
        append_entry(&path, "  {\"ok\": 1}").unwrap();
        // The bad contents moved aside, byte for byte...
        assert_eq!(
            std::fs::read_to_string(&quarantine).unwrap(),
            "{ torn write, no closing bracke"
        );
        // ...and the trajectory restarted as a well-formed array.
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.trim_start().starts_with('['));
        assert!(body.trim_end().ends_with(']'));
        assert!(body.contains("\"ok\": 1"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);
    }
}
