//! Crash-safe checkpoint/restore for the Vantage simulator.
//!
//! This crate defines the on-disk snapshot format and the [`Snapshot`]
//! capability trait the rest of the workspace implements. The format is
//! deliberately paranoid about torn and hostile input:
//!
//! * a fixed magic + format-version header,
//! * length-prefixed named sections, each carrying a CRC-32 of its
//!   payload,
//! * a section count in the header so truncation is detected even when
//!   a whole trailing section is missing,
//! * atomic writes (temp file + fsync + rename) so a crash mid-write
//!   never leaves a half-written checkpoint under the real name.
//!
//! Every failure mode maps to a typed [`SnapshotError`]; restoring from
//! a corrupt file must never panic and never leave the target object
//! partially updated (implementors decode into locals first, then
//! commit).
//!
//! # Format
//!
//! ```text
//! [magic  8B = "VNTGSNAP"]
//! [version u32 LE]
//! [section count u32 LE]
//! repeated per section:
//!   [name length u16 LE][name bytes (UTF-8)]
//!   [payload length u64 LE][payload bytes]
//!   [CRC-32 (IEEE) of payload, u32 LE]
//! ```
//!
//! Versioning rule: writers emit [`FORMAT_VERSION`] and readers accept
//! exactly that version. No snapshot outlives the build that wrote it
//! (checkpoints are crash-recovery and fork points, not archives), so any
//! change to section payload encodings bumps the version and every other
//! version — older or newer — is rejected with
//! [`SnapshotError::UnsupportedVersion`] rather than misread or migrated.
//!
//! Unknown *extra* sections in a current-version file are ignored, so
//! writers may add sections without a version bump as long as existing
//! payloads are unchanged.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"VNTGSNAP";

/// The one format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 7;

/// Hard ceiling on a single section payload (1 GiB). A hostile length
/// prefix larger than this is reported as malformed instead of being
/// allowed to drive a huge allocation.
const MAX_SECTION_LEN: u64 = 1 << 30;

/// Hard ceiling on decoded container lengths (number of elements). The
/// simulator's largest vectors are a few million entries; a hostile
/// length beyond this is certainly corrupt.
const MAX_SEQ_LEN: u64 = 1 << 28;

/// Everything that can go wrong writing or (far more often) reading a
/// snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The file (or a section payload) ended before its declared length.
    Truncated {
        /// What was being read when the data ran out.
        context: String,
    },
    /// A section's payload does not match its recorded CRC-32.
    ChecksumMismatch {
        /// Name of the damaged section.
        section: String,
    },
    /// A section the restore path requires is absent.
    MissingSection {
        /// Name of the absent section.
        section: String,
    },
    /// The same section name appears twice.
    DuplicateSection {
        /// Name of the repeated section.
        section: String,
    },
    /// Structurally invalid data: bad lengths, non-UTF-8 names,
    /// impossible enum discriminants, trailing bytes, and the like.
    Malformed {
        /// What was malformed.
        context: String,
    },
    /// The snapshot is internally valid but does not match the object
    /// being restored into (different geometry, partition count, …).
    Mismatch {
        /// What disagreed.
        context: String,
    },
    /// The component has no snapshot support.
    Unsupported {
        /// The component that cannot be snapshotted.
        what: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot I/O error: {e}"),
            Self::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            Self::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            Self::ChecksumMismatch { section } => {
                write!(f, "snapshot section '{section}' failed its checksum")
            }
            Self::MissingSection { section } => {
                write!(f, "snapshot is missing required section '{section}'")
            }
            Self::DuplicateSection { section } => {
                write!(f, "snapshot contains duplicate section '{section}'")
            }
            Self::Malformed { context } => write!(f, "malformed snapshot data: {context}"),
            Self::Mismatch { context } => {
                write!(f, "snapshot does not match this configuration: {context}")
            }
            Self::Unsupported { what } => {
                write!(f, "{what} does not support checkpoint/restore")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Shorthand for `Result<T, SnapshotError>`.
pub type Result<T> = std::result::Result<T, SnapshotError>;

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `data`.
///
/// Hand-rolled nibble-table implementation so the crate stays
/// dependency-free; speed is irrelevant next to simulation time.
pub fn crc32(data: &[u8]) -> u32 {
    // Nibble lookup table for the reflected polynomial 0xEDB88320.
    const TABLE: [u32; 16] = [
        0x0000_0000,
        0x1DB7_1064,
        0x3B6E_20C8,
        0x26D9_30AC,
        0x76DC_4190,
        0x6B6B_51F4,
        0x4DB2_6158,
        0x5005_713C,
        0xEDB8_8320,
        0xF00F_9344,
        0xD6D6_A3E8,
        0xCB61_B38C,
        0x9B64_C2B0,
        0x86D3_D2D4,
        0xA00A_E278,
        0xBDBD_F21C,
    ];
    let mut crc: u32 = !0;
    for &b in data {
        crc = (crc >> 4) ^ TABLE[((crc ^ b as u32) & 0xF) as usize];
        crc = (crc >> 4) ^ TABLE[((crc ^ (b as u32 >> 4)) & 0xF) as usize];
    }
    !crc
}

/// A little-endian append-only byte encoder for section payloads.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a length-prefixed `u8` slice (alias of [`put_bytes`](Self::put_bytes)).
    pub fn put_u8_slice(&mut self, v: &[u8]) {
        self.put_bytes(v);
    }

    /// Appends a length-prefixed `u16` slice.
    pub fn put_u16_slice(&mut self, v: &[u16]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u16(x);
        }
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Appends a length-prefixed `i32` slice.
    pub fn put_i32_slice(&mut self, v: &[i32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u32(x as u32);
        }
    }

    /// Appends `Some(v)` as `1` + value bytes, `None` as `0`.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }
}

/// A bounds-checked little-endian decoder over a section payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'a str,
}

impl<'a> Decoder<'a> {
    /// Wraps `buf`; `context` names the section for error messages.
    pub fn new(buf: &'a [u8], context: &'a str) -> Self {
        Self {
            buf,
            pos: 0,
            context,
        }
    }

    fn truncated(&self) -> SnapshotError {
        SnapshotError::Truncated {
            context: self.context.to_string(),
        }
    }

    fn malformed(&self, what: &str) -> SnapshotError {
        SnapshotError::Malformed {
            context: format!("{}: {what}", self.context),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.truncated());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn take_bool(&mut self) -> Result<bool> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.malformed(&format!("bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn take_usize(&mut self) -> Result<usize> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| self.malformed("usize overflow"))
    }

    /// Reads a sequence-length prefix, rejecting values over
    /// `MAX_SEQ_LEN` or provably longer than the remaining payload —
    /// the first line of defense against hostile length prefixes when a
    /// composite decoder is about to loop or allocate.
    pub fn take_len(&mut self) -> Result<usize> {
        let n = self.take_u64()?;
        if n > MAX_SEQ_LEN || n as usize > self.remaining() {
            // Either absurd or provably longer than the data left: a
            // hostile or torn length prefix.
            return Err(self.truncated());
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.take_len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String> {
        let bytes = self.take_bytes()?;
        String::from_utf8(bytes).map_err(|_| self.malformed("non-UTF-8 string"))
    }

    /// Reads a length-prefixed `u8` vector.
    pub fn take_u8_vec(&mut self) -> Result<Vec<u8>> {
        self.take_bytes()
    }

    /// Reads a length-prefixed `u16` vector.
    pub fn take_u16_vec(&mut self) -> Result<Vec<u16>> {
        let n = self.take_len()?;
        let mut v = Vec::with_capacity(n.min(self.remaining() / 2 + 1));
        for _ in 0..n {
            v.push(self.take_u16()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn take_u32_vec(&mut self) -> Result<Vec<u32>> {
        let n = self.take_len()?;
        let mut v = Vec::with_capacity(n.min(self.remaining() / 4 + 1));
        for _ in 0..n {
            v.push(self.take_u32()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn take_u64_vec(&mut self) -> Result<Vec<u64>> {
        let n = self.take_len()?;
        let mut v = Vec::with_capacity(n.min(self.remaining() / 8 + 1));
        for _ in 0..n {
            v.push(self.take_u64()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `i32` vector.
    pub fn take_i32_vec(&mut self) -> Result<Vec<i32>> {
        let n = self.take_len()?;
        let mut v = Vec::with_capacity(n.min(self.remaining() / 4 + 1));
        for _ in 0..n {
            v.push(self.take_u32()? as i32);
        }
        Ok(v)
    }

    /// Reads an optional `u64` written by [`Encoder::put_opt_u64`].
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_u64()?)),
            b => Err(self.malformed(&format!("option tag {b}"))),
        }
    }

    /// Asserts every byte was consumed; trailing garbage is malformed.
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed {
                context: format!("{}: {} trailing bytes", self.context, self.remaining()),
            });
        }
        Ok(())
    }

    /// Builds a [`SnapshotError::Mismatch`] scoped to this decoder's
    /// section, for implementors to report shape disagreements.
    pub fn mismatch(&self, what: &str) -> SnapshotError {
        SnapshotError::Mismatch {
            context: format!("{}: {what}", self.context),
        }
    }

    /// Builds a [`SnapshotError::Malformed`] scoped to this decoder's
    /// section, for implementors to report impossible values.
    pub fn invalid(&self, what: &str) -> SnapshotError {
        self.malformed(what)
    }
}

/// A component that can serialize its mutable state into an [`Encoder`]
/// and later restore it from a [`Decoder`].
///
/// The contract: `load_state` is called on an object **freshly built
/// from the same configuration** that produced the save. Derived or
/// seed-dependent structures (hash tables, threshold curves) are
/// rebuilt, not stored. On any error the target must be left either
/// untouched or fully overwritten by a subsequent successful load —
/// implementors decode into locals first and commit at the end.
pub trait Snapshot {
    /// Serializes all state needed for bit-identical resume.
    fn save_state(&self, enc: &mut Encoder);

    /// Restores state captured by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] on torn, hostile, or mismatched input.
    fn load_state(&mut self, dec: &mut Decoder<'_>) -> Result<()>;
}

/// An in-memory snapshot under construction: named sections that
/// [`write_atomic`](Self::write_atomic) serializes to disk.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named section with the encoder's payload.
    pub fn add(&mut self, name: &str, enc: Encoder) {
        self.sections.push((name.to_string(), enc.into_bytes()));
    }

    /// Adds a section by running `f` over a fresh encoder.
    pub fn add_with(&mut self, name: &str, f: impl FnOnce(&mut Encoder)) {
        let mut enc = Encoder::new();
        f(&mut enc);
        self.add(name, enc);
    }

    /// Serializes the snapshot to bytes (header + sections).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        out
    }

    /// Writes the snapshot to `path` atomically: the bytes go to a
    /// sibling temp file which is fsynced and then renamed over the
    /// target, so a crash at any point leaves either the old file or
    /// the new one — never a torn mix.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on any filesystem failure.
    pub fn write_atomic(&self, path: &Path) -> Result<()> {
        let bytes = self.to_bytes();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Best-effort directory fsync so the rename itself is durable.
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                if let Ok(d) = std::fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
        }
        Ok(())
    }
}

/// A fully validated snapshot read back from disk (or bytes).
///
/// Construction verifies the header, every section's length, and every
/// section's CRC before any payload is handed out, so a
/// `SnapshotReader` that exists at all is structurally sound.
#[derive(Debug)]
pub struct SnapshotReader {
    sections: BTreeMap<String, Vec<u8>>,
}

impl SnapshotReader {
    /// Parses and fully validates `bytes`.
    ///
    /// # Errors
    ///
    /// Every hostile-input failure mode maps to its own
    /// [`SnapshotError`] variant; this function never panics on
    /// arbitrary input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(bytes, "snapshot header");
        let magic = d.take(8).map_err(|_| SnapshotError::Truncated {
            context: "file header".into(),
        })?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = d.take_u32().map_err(|_| SnapshotError::Truncated {
            context: "file header".into(),
        })?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = d.take_u32().map_err(|_| SnapshotError::Truncated {
            context: "file header".into(),
        })?;
        let mut sections = BTreeMap::new();
        for i in 0..count {
            let name_len = d.take_u16().map_err(|_| SnapshotError::Truncated {
                context: format!("section {i} name length"),
            })? as usize;
            let name_bytes = d.take(name_len).map_err(|_| SnapshotError::Truncated {
                context: format!("section {i} name"),
            })?;
            let name = std::str::from_utf8(name_bytes).map_err(|_| SnapshotError::Malformed {
                context: format!("section {i} name is not UTF-8"),
            })?;
            let payload_len = d.take_u64().map_err(|_| SnapshotError::Truncated {
                context: format!("section '{name}' length"),
            })?;
            if payload_len > MAX_SECTION_LEN {
                return Err(SnapshotError::Malformed {
                    context: format!("section '{name}' declares absurd length {payload_len}"),
                });
            }
            let payload = d
                .take(payload_len as usize)
                .map_err(|_| SnapshotError::Truncated {
                    context: format!("section '{name}' payload"),
                })?;
            let stored_crc = d.take_u32().map_err(|_| SnapshotError::Truncated {
                context: format!("section '{name}' checksum"),
            })?;
            if crc32(payload) != stored_crc {
                return Err(SnapshotError::ChecksumMismatch {
                    section: name.to_string(),
                });
            }
            if sections
                .insert(name.to_string(), payload.to_vec())
                .is_some()
            {
                return Err(SnapshotError::DuplicateSection {
                    section: name.to_string(),
                });
            }
        }
        if d.remaining() != 0 {
            return Err(SnapshotError::Malformed {
                context: format!("{} bytes of trailing garbage after sections", d.remaining()),
            });
        }
        Ok(Self { sections })
    }

    /// Reads and validates the snapshot at `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure, otherwise as
    /// [`from_bytes`](Self::from_bytes).
    pub fn read(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Names of all sections present, sorted.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }

    /// Whether section `name` exists.
    pub fn has(&self, name: &str) -> bool {
        self.sections.contains_key(name)
    }

    /// A decoder over section `name`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`] when absent.
    pub fn section<'a>(&'a self, name: &'a str) -> Result<Decoder<'a>> {
        match self.sections.get(name) {
            Some(payload) => Ok(Decoder::new(payload, name)),
            None => Err(SnapshotError::MissingSection {
                section: name.to_string(),
            }),
        }
    }

    /// Restores `target` from section `name`, requiring the section's
    /// payload to be fully consumed.
    ///
    /// # Errors
    ///
    /// Propagates the target's [`Snapshot::load_state`] errors plus
    /// [`SnapshotError::MissingSection`] / trailing-garbage checks.
    pub fn restore(&self, name: &str, target: &mut dyn Snapshot) -> Result<()> {
        let mut dec = self.section(name)?;
        target.load_state(&mut dec)?;
        dec.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_sections() {
        let mut w = SnapshotWriter::new();
        w.add_with("alpha", |e| {
            e.put_u64(42);
            e.put_str("hello");
            e.put_u64_slice(&[1, 2, 3]);
        });
        w.add_with("beta", |e| e.put_f64(1.5));
        let bytes = w.to_bytes();
        let r = SnapshotReader::from_bytes(&bytes).unwrap();
        assert!(r.has("alpha") && r.has("beta"));
        let mut d = r.section("alpha").unwrap();
        assert_eq!(d.take_u64().unwrap(), 42);
        assert_eq!(d.take_str().unwrap(), "hello");
        assert_eq!(d.take_u64_vec().unwrap(), vec![1, 2, 3]);
        d.finish().unwrap();
        let mut d = r.section("beta").unwrap();
        assert_eq!(d.take_f64().unwrap(), 1.5);
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = SnapshotReader::from_bytes(b"NOTASNAPxxxx").unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic));
    }

    #[test]
    fn version_bump_is_rejected() {
        let mut bytes = SnapshotWriter::new().to_bytes();
        bytes[8] = 99; // version LE low byte
        let err = SnapshotReader::from_bytes(&bytes).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::UnsupportedVersion { found: 99, .. }
        ));
    }

    #[test]
    fn supported_version_range_is_read_and_reported() {
        // The writer emits the current version, which parses...
        let bytes = SnapshotWriter::new().to_bytes();
        assert_eq!(&bytes[8..12], &FORMAT_VERSION.to_le_bytes());
        SnapshotReader::from_bytes(&bytes).unwrap();
        // ...and every other header version, older or newer, is rejected
        // with the version it claimed.
        for v in (0..=FORMAT_VERSION + 1).filter(|&v| v != FORMAT_VERSION) {
            let mut other = bytes.clone();
            other[8..12].copy_from_slice(&v.to_le_bytes());
            match SnapshotReader::from_bytes(&other).unwrap_err() {
                SnapshotError::UnsupportedVersion { found, supported } => {
                    assert_eq!((found, supported), (v, FORMAT_VERSION));
                }
                err => panic!("version {v} gave {err:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_point_is_typed() {
        let mut w = SnapshotWriter::new();
        w.add_with("s", |e| e.put_u64_slice(&[7; 100]));
        let bytes = w.to_bytes();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught_or_harmless() {
        let mut w = SnapshotWriter::new();
        w.add_with("s", |e| {
            e.put_u64(0xDEAD_BEEF);
            e.put_u64_slice(&[1, 2, 3, 4]);
        });
        let bytes = w.to_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[byte] ^= 1 << bit;
                // Must either parse (flip hit a name char making a
                // different valid section name is impossible here since
                // CRC covers only payload — but a name flip changes
                // the name, still structurally valid) or fail typed.
                // The essential guarantee: no panic, and payload
                // corruption is always caught by the CRC.
                if let Ok(r) = SnapshotReader::from_bytes(&m) {
                    // Structure survived: the flip hit the name (or
                    // count byte that still parses). Payload bytes
                    // must be intact for any surviving section.
                    for name in r.section_names() {
                        let _ = r.section(name).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn payload_bit_flips_always_fail_checksum() {
        let mut w = SnapshotWriter::new();
        w.add_with("s", |e| e.put_u64_slice(&[9; 32]));
        let bytes = w.to_bytes();
        // Payload starts after magic(8)+version(4)+count(4)+namelen(2)+
        // name(1)+payloadlen(8) = 27, and runs for 8+32*8 bytes.
        let payload_start = 27;
        let payload_end = payload_start + 8 + 32 * 8;
        for byte in payload_start..payload_end {
            let mut m = bytes.clone();
            m[byte] ^= 0x10;
            let err = SnapshotReader::from_bytes(&m).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::ChecksumMismatch { .. } | SnapshotError::Truncated { .. }
                ),
                "payload flip at {byte} gave {err:?}"
            );
        }
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("vsnap-test-{}", std::process::id()));
        let path = dir.join("t.ckpt");
        let mut w = SnapshotWriter::new();
        w.add_with("x", |e| e.put_u64(5));
        w.write_atomic(&path).unwrap();
        let r = SnapshotReader::read(&path).unwrap();
        assert_eq!(r.section("x").unwrap().take_u64().unwrap(), 5);
        // No temp file left behind.
        assert!(!path.with_extension("ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decoder_rejects_hostile_lengths() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX); // absurd length prefix
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "test");
        assert!(matches!(
            d.take_u64_vec().unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
    }

    #[test]
    fn missing_and_duplicate_sections_are_typed() {
        let w = SnapshotWriter::new();
        let r = SnapshotReader::from_bytes(&w.to_bytes()).unwrap();
        assert!(matches!(
            r.section("nope").unwrap_err(),
            SnapshotError::MissingSection { .. }
        ));

        let mut w = SnapshotWriter::new();
        w.add_with("dup", |e| e.put_u8(1));
        w.add_with("dup", |e| e.put_u8(2));
        assert!(matches!(
            SnapshotReader::from_bytes(&w.to_bytes()).unwrap_err(),
            SnapshotError::DuplicateSection { .. }
        ));
    }
}
