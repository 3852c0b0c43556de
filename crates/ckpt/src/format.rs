//! The versioned, checksummed binary snapshot container.
//!
//! ```text
//! File    := Header Section*
//! Header  := MAGIC(8) VERSION(u32) COUNT(u32) HCRC(u32)
//!            // HCRC = crc32 of the VERSION and COUNT bytes
//! Section := NLEN(u32) NAME(NLEN) PLEN(u64) PAYLOAD(PLEN) CRC(u32)
//!            // CRC = crc32 of NAME + PAYLOAD
//! Payload := ECOUNT(u32) Entry*
//! Entry   := KLEN(u32) KEY(KLEN) TAG(u8) VALUE
//! ```
//!
//! All integers are little-endian; floats are stored as their raw bit
//! patterns (`to_bits`), so round-trips are bit-exact. Every byte of the
//! file is covered by the magic comparison, the header CRC, a section CRC,
//! or the structural length checks — flipping any single byte is detected
//! (property-tested in `tests/properties.rs`).
//!
//! The codec is single-pass: the encoder sizes its output once and writes
//! each section where it ends up, checksumming it in place; the decoder
//! reads from the borrowed input; number arrays move as slabs (one length
//! check, then fixed-width words). `tests/codec_oracle.rs` pins bytes and
//! errors to the element-wise codec this replaced, and to a golden file.

use crate::crc32::{crc32, Crc32};
use crate::state::{State, Value};
use crate::CkptError;

/// The eight magic bytes every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"AIBCKPT\0";

/// The format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

const TAG_U64: u8 = 1;
const TAG_F32: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_F32S: u8 = 6;
const TAG_U64S: u8 = 7;
const TAG_F64S: u8 = 8;

/// An in-memory snapshot: named sections in a fixed order, each holding one
/// [`State`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotFile {
    sections: Vec<(String, State)>,
}

impl SnapshotFile {
    /// An empty snapshot.
    pub fn new() -> Self {
        SnapshotFile::default()
    }

    /// Appends a section.
    ///
    /// # Panics
    ///
    /// Panics if a section with this name already exists.
    pub fn push(&mut self, name: impl Into<String>, state: State) {
        let name = name.into();
        assert!(
            !self.sections.iter().any(|(n, _)| *n == name),
            "duplicate snapshot section `{name}`"
        );
        self.sections.push((name, state));
    }

    /// Looks up a section by name.
    pub fn section(&self, name: &str) -> Result<&State, CkptError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .ok_or_else(|| missing_section(name))
    }

    /// Takes one section out by name, dropping the rest: ownership of its
    /// state without a clone.
    pub fn into_section(self, name: &str) -> Result<State, CkptError> {
        self.sections
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .ok_or_else(|| missing_section(name))
    }

    /// Iterates sections in file order.
    pub fn sections(&self) -> impl Iterator<Item = (&str, &State)> {
        self.sections.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Serializes to bytes at [`FORMAT_VERSION`].
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_version(FORMAT_VERSION)
    }

    /// Serializes to bytes claiming an arbitrary format version.
    ///
    /// The header checksum is computed over the claimed version, so the
    /// result is well-formed at that version. Exists for the seeded-defect
    /// fixtures and version-negotiation tests; real snapshots use
    /// [`SnapshotFile::to_bytes`].
    pub fn to_bytes_with_version(&self, version: u32) -> Vec<u8> {
        let total = self.encoded_len();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let hcrc = crc32(&out[MAGIC.len()..]);
        out.extend_from_slice(&hcrc.to_le_bytes());
        for (name, state) in &self.sections {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            // PLEN is patched in once the payload behind it is written.
            let plen_at = out.len();
            out.extend_from_slice(&[0; 8]);
            let payload_start = out.len();
            encode_state(state, &mut out);
            let plen = (out.len() - payload_start) as u64;
            out[plen_at..payload_start].copy_from_slice(&plen.to_le_bytes());
            let mut crc = Crc32::new();
            crc.update(name.as_bytes());
            crc.update(&out[payload_start..]);
            out.extend_from_slice(&crc.finish().to_le_bytes());
        }
        debug_assert_eq!(out.len(), total, "encoded_len disagrees with the encoder");
        out
    }

    /// Exact length of [`SnapshotFile::to_bytes`]'s output.
    fn encoded_len(&self) -> usize {
        let value_len = |value: &Value| match value {
            Value::U64(_) | Value::F64(_) => 8,
            Value::F32(_) => 4,
            Value::Bool(_) => 1,
            Value::Str(v) => 4 + v.len(),
            Value::F32s { shape, data } => 4 + 8 * shape.len() + 4 * data.len(),
            Value::U64s(v) => 8 + 8 * v.len(),
            Value::F64s(v) => 8 + 8 * v.len(),
        };
        let entry_len = |(key, value): (&str, &Value)| 4 + key.len() + 1 + value_len(value);
        let section_len = |(name, state): &(String, State)| {
            4 + name.len() + 8 + 4 + state.iter().map(entry_len).sum::<usize>() + 4
        };
        let header_len = MAGIC.len() + 4 + 4 + 4;
        header_len + self.sections.iter().map(section_len).sum::<usize>()
    }

    /// Strictly decodes a snapshot, failing on the first defect (bad magic,
    /// wrong version, checksum mismatch, truncation, duplicate sections, or
    /// orphan trailing bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::new(bytes);
        let (version, count) = read_header(&mut r)?;
        if version != FORMAT_VERSION {
            return Err(CkptError::VersionMismatch { found: version });
        }
        let mut file = SnapshotFile::new();
        for _ in 0..count {
            let (name, state) = read_section(&mut r)?;
            if file.sections.iter().any(|(n, _)| *n == name) {
                return Err(CkptError::DuplicateSection { section: name });
            }
            file.sections.push((name, state));
        }
        if r.remaining() > 0 {
            return Err(CkptError::OrphanBytes {
                offset: r.offset,
                len: r.remaining(),
            });
        }
        Ok(file)
    }
}

fn missing_section(name: &str) -> CkptError {
    CkptError::MissingSection {
        section: name.to_string(),
    }
}

/// Lints a byte stream, collecting *every* detectable defect rather than
/// stopping at the first — the engine behind `aibench-check --ckpt`.
///
/// An empty result means the stream is a well-formed snapshot at the
/// current format version.
pub fn validate(bytes: &[u8]) -> Vec<CkptError> {
    let mut issues = Vec::new();
    let mut r = Reader::new(bytes);
    let (version, count) = match read_header(&mut r) {
        Ok(h) => h,
        Err(e) => {
            // Without a readable header the section framing is unknowable.
            issues.push(e);
            return issues;
        }
    };
    if version != FORMAT_VERSION {
        issues.push(CkptError::VersionMismatch { found: version });
    }
    let mut names: Vec<String> = Vec::new();
    for _ in 0..count {
        match read_section(&mut r) {
            Ok((name, _)) => {
                if names.contains(&name) {
                    issues.push(CkptError::DuplicateSection { section: name });
                } else {
                    names.push(name);
                }
            }
            Err(e @ CkptError::Truncated { .. }) => {
                // Framing is gone; nothing after this is attributable.
                issues.push(e);
                return issues;
            }
            Err(e) => {
                issues.push(e);
                // CRC/decoding failures leave the framing intact, so keep
                // walking the remaining sections.
            }
        }
    }
    if r.remaining() > 0 {
        issues.push(CkptError::OrphanBytes {
            offset: r.offset,
            len: r.remaining(),
        });
    }
    issues
}

fn read_header(r: &mut Reader<'_>) -> Result<(u32, u32), CkptError> {
    let magic = r.take(8)?;
    if magic != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let header_body = r.peek(8)?;
    let version = r.u32()?;
    let count = r.u32()?;
    let hcrc = r.u32()?;
    if crc32(header_body) != hcrc {
        return Err(CkptError::HeaderChecksum);
    }
    Ok((version, count))
}

fn read_section(r: &mut Reader<'_>) -> Result<(String, State), CkptError> {
    let section_offset = r.offset;
    let nlen = r.u32()? as usize;
    let name_bytes = r.take(nlen)?;
    let plen = r.u64()? as usize;
    let payload_offset = r.offset;
    let payload = r.take(plen)?;
    let stored = r.u32()?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| CkptError::Malformed {
            offset: section_offset,
            what: "section name is not UTF-8".to_string(),
        })?
        .to_string();
    let mut crc = Crc32::new();
    crc.update(name_bytes);
    crc.update(payload);
    if crc.finish() != stored {
        return Err(CkptError::SectionChecksum { section: name });
    }
    let state = decode_state(payload, payload_offset)?;
    Ok((name, state))
}

/// Appends `items` as consecutive `W`-byte little-endian words. The caller
/// has reserved the room, so this is one fill and one fixed-width pass.
fn put_slab<T: Copy, const W: usize>(out: &mut Vec<u8>, items: &[T], le: impl Fn(T) -> [u8; W]) {
    let start = out.len();
    out.resize(start + items.len() * W, 0);
    for (dst, &item) in out[start..].chunks_exact_mut(W).zip(items) {
        dst.copy_from_slice(&le(item));
    }
}

fn encode_state(state: &State, out: &mut Vec<u8>) {
    out.extend_from_slice(&(state.len() as u32).to_le_bytes());
    for (key, value) in state.iter() {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        match value {
            Value::U64(v) => {
                out.push(TAG_U64);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::F32(v) => {
                out.push(TAG_F32);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Value::F64(v) => {
                out.push(TAG_F64);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Value::Bool(v) => {
                out.push(TAG_BOOL);
                out.push(u8::from(*v));
            }
            Value::Str(v) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v.as_bytes());
            }
            Value::F32s { shape, data } => {
                out.push(TAG_F32S);
                out.extend_from_slice(&(shape.len() as u32).to_le_bytes());
                put_slab(out, shape, |d| (d as u64).to_le_bytes());
                put_slab(out, data, |v| v.to_bits().to_le_bytes());
            }
            Value::U64s(v) => {
                out.push(TAG_U64S);
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                put_slab(out, v, u64::to_le_bytes);
            }
            Value::F64s(v) => {
                out.push(TAG_F64S);
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                put_slab(out, v, |x| x.to_bits().to_le_bytes());
            }
        }
    }
}

fn decode_state(payload: &[u8], base_offset: usize) -> Result<State, CkptError> {
    let mut r = Reader::with_base(payload, base_offset);
    let count = r.u32()?;
    let mut state = State::new();
    for _ in 0..count {
        let entry_offset = r.offset;
        let klen = r.u32()? as usize;
        let key = std::str::from_utf8(r.take(klen)?).map_err(|_| CkptError::Malformed {
            offset: entry_offset,
            what: "entry key is not UTF-8".to_string(),
        })?;
        if state.contains_key(key) {
            return Err(CkptError::Malformed {
                offset: entry_offset,
                what: format!("duplicate key `{key}`"),
            });
        }
        let tag = r.take(1)?[0];
        let value = match tag {
            TAG_U64 => Value::U64(r.u64()?),
            TAG_F32 => Value::F32(f32::from_bits(r.u32()?)),
            TAG_F64 => Value::F64(f64::from_bits(r.u64()?)),
            TAG_BOOL => Value::Bool(r.take(1)?[0] != 0),
            TAG_STR => {
                let len = r.u32()? as usize;
                let s = std::str::from_utf8(r.take(len)?).map_err(|_| CkptError::Malformed {
                    offset: entry_offset,
                    what: format!("string value of `{key}` is not UTF-8"),
                })?;
                Value::Str(s.to_string())
            }
            TAG_F32S => {
                let rank = r.u32()? as usize;
                let mut shape = Vec::with_capacity(rank.min(64));
                let mut elems: usize = 1;
                for _ in 0..rank {
                    let d = r.u64()? as usize;
                    elems = elems.checked_mul(d).ok_or_else(|| CkptError::Malformed {
                        offset: entry_offset,
                        what: format!("tensor `{key}` shape overflows"),
                    })?;
                    shape.push(d);
                }
                let data = r.slab(elems, |b| f32::from_bits(u32::from_le_bytes(b)))?;
                Value::F32s { shape, data }
            }
            TAG_U64S => {
                let len = r.u64()? as usize;
                Value::U64s(r.slab(len, u64::from_le_bytes)?)
            }
            TAG_F64S => {
                let len = r.u64()? as usize;
                Value::F64s(r.slab(len, |b| f64::from_bits(u64::from_le_bytes(b)))?)
            }
            other => {
                return Err(CkptError::Malformed {
                    offset: entry_offset,
                    what: format!("unknown value tag {other} for key `{key}`"),
                })
            }
        };
        state.put(key, value);
    }
    if r.remaining() > 0 {
        return Err(CkptError::Malformed {
            offset: r.offset,
            what: format!("{} stray byte(s) after the last entry", r.remaining()),
        });
    }
    Ok(state)
}

/// A bounds-checked little-endian byte reader with offset tracking.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: usize,
    offset: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader::with_base(bytes, 0)
    }

    fn with_base(bytes: &'a [u8], base: usize) -> Self {
        Reader {
            bytes,
            pos: 0,
            base,
            offset: base,
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn peek(&self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated {
                offset: self.offset,
                needed: n - self.remaining(),
            });
        }
        Ok(&self.bytes[self.pos..self.pos + n])
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let out = self.peek(n)?;
        self.pos += n;
        self.offset = self.base + self.pos;
        Ok(out)
    }

    fn array<const W: usize>(&mut self) -> Result<[u8; W], CkptError> {
        let bytes = self.take(W)?;
        Ok(bytes.try_into().expect("take(W) returns W bytes"))
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads `count` consecutive `W`-byte words with one bounds check.
    ///
    /// A slab that does not fit fails exactly where reading it word by
    /// word would: past the last whole word present, needing the rest of
    /// the next one. A `count` too large to express in bytes cannot fit.
    fn slab<T, const W: usize>(
        &mut self,
        count: usize,
        from_le: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, CkptError> {
        let fits = count.checked_mul(W).filter(|&len| len <= self.remaining());
        let Some(len) = fits else {
            self.take(self.remaining() / W * W)?;
            return Err(self.take(W).expect_err("less than a word is left"));
        };
        let words = self.take(len)?.chunks_exact(W);
        Ok(words
            .map(|w| from_le(w.try_into().expect("chunks_exact(W) yields W bytes")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> SnapshotFile {
        let mut meta = State::new();
        meta.put_str("code", "DC-AI-C15");
        meta.put_u64("seed", 7);
        let mut trainer = State::new();
        trainer.put_f32s("w", &[2, 3], vec![1.0, -2.5, 0.0, f32::NAN, 4.0, 5.5]);
        trainer.put_f64s("q", vec![0.25, f64::NAN]);
        trainer.put_bool("flag", true);
        trainer.put_u64s("epochs", vec![1, 2, 3]);
        let mut file = SnapshotFile::new();
        file.push("meta", meta);
        file.push("trainer", trainer);
        file
    }

    #[test]
    fn round_trip_is_exact() {
        let file = sample_file();
        let bytes = file.to_bytes();
        let back = SnapshotFile::from_bytes(&bytes).unwrap();
        assert_eq!(file, back);
        // Re-encoding is byte-stable.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn validate_is_clean_on_well_formed_bytes() {
        assert!(validate(&sample_file().to_bytes()).is_empty());
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = sample_file().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(CkptError::BadMagic)
        ));
        assert_eq!(validate(&bytes), vec![CkptError::BadMagic]);
    }

    #[test]
    fn version_mismatch_is_detected() {
        let bytes = sample_file().to_bytes_with_version(99);
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(CkptError::VersionMismatch { found: 99 })
        ));
        assert!(validate(&bytes).contains(&CkptError::VersionMismatch { found: 99 }));
    }

    #[test]
    fn payload_bit_flip_fails_the_section_crc() {
        let bytes = sample_file().to_bytes();
        // Flip one byte in the middle of the trainer section payload.
        let mut corrupt = bytes.clone();
        let idx = bytes.len() - 24;
        corrupt[idx] ^= 0x01;
        assert!(matches!(
            SnapshotFile::from_bytes(&corrupt),
            Err(CkptError::SectionChecksum { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_file().to_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10, 4] {
            let issues = validate(&bytes[..cut]);
            assert!(!issues.is_empty(), "truncation at {cut} went undetected");
        }
    }

    #[test]
    fn orphan_bytes_are_detected() {
        let mut bytes = sample_file().to_bytes();
        bytes.extend_from_slice(b"stray");
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(CkptError::OrphanBytes { len: 5, .. })
        ));
        assert!(validate(&bytes)
            .iter()
            .any(|e| matches!(e, CkptError::OrphanBytes { .. })));
    }

    #[test]
    fn validate_collects_multiple_issues() {
        // Wrong version AND a corrupted first section: both must appear.
        let file = sample_file();
        let mut bytes = file.to_bytes_with_version(2);
        // Corrupt a byte inside the first section's payload: 20-byte
        // header, then NLEN(4) + "meta"(4) + PLEN(8) puts the payload at
        // offset 36.
        bytes[40] ^= 0x10;
        let issues = validate(&bytes);
        assert!(issues.contains(&CkptError::VersionMismatch { found: 2 }));
        assert!(issues
            .iter()
            .any(|e| matches!(e, CkptError::SectionChecksum { .. })));
    }

    #[test]
    fn missing_section_lookup_errors() {
        let file = sample_file();
        assert!(matches!(
            file.section("nope"),
            Err(CkptError::MissingSection { .. })
        ));
        assert!(file.section("meta").is_ok());
        // Taking a section out yields the same state, or the same error.
        let meta = file.section("meta").unwrap().clone();
        assert_eq!(file.clone().into_section("meta"), Ok(meta));
        assert!(matches!(
            file.into_section("nope"),
            Err(CkptError::MissingSection { .. })
        ));
    }

    #[test]
    fn empty_file_round_trips() {
        let file = SnapshotFile::new();
        let bytes = file.to_bytes();
        assert_eq!(SnapshotFile::from_bytes(&bytes).unwrap(), file);
        assert!(validate(&bytes).is_empty());
    }
}
