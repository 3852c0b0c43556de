//! The element-wise snapshot codec `aibench-ckpt` shipped before its
//! single-pass rewrite, kept as a test oracle: the encoder that appends one
//! value at a time through intermediate `payload` and `crc_input` buffers,
//! and the decoder that copies each section and bounds-checks every
//! element — over a bit-serial CRC32 that has no table to get wrong.
//! Written against the crate's public API only, so it shares no code with
//! what it checks. The shipped codec must produce the same bytes, accept
//! the same inputs and report the same errors.

use aibench_ckpt::{CkptError, SnapshotFile, State, Value, FORMAT_VERSION, MAGIC};

/// CRC32 (IEEE, reflected, `0xEDB88320`) one bit at a time — no table.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

const TAG_U64: u8 = 1;
const TAG_F32: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_F32S: u8 = 6;
const TAG_U64S: u8 = 7;
const TAG_F64S: u8 = 8;

/// The old `SnapshotFile::to_bytes`.
pub fn to_bytes(file: &SnapshotFile) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    let header_start = out.len();
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(file.sections().count() as u32).to_le_bytes());
    let hcrc = crc32(&out[header_start..]);
    out.extend_from_slice(&hcrc.to_le_bytes());
    for (name, state) in file.sections() {
        let payload = encode_state(state);
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let mut crc_input = Vec::with_capacity(name.len() + payload.len());
        crc_input.extend_from_slice(name.as_bytes());
        crc_input.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    }
    out
}

/// The old `SnapshotFile::from_bytes`.
pub fn from_bytes(bytes: &[u8]) -> Result<SnapshotFile, CkptError> {
    let mut r = Reader::new(bytes);
    let (version, count) = read_header(&mut r)?;
    if version != FORMAT_VERSION {
        return Err(CkptError::VersionMismatch { found: version });
    }
    let mut file = SnapshotFile::new();
    for _ in 0..count {
        let (name, state) = read_section(&mut r)?;
        if file.sections().any(|(n, _)| n == name) {
            return Err(CkptError::DuplicateSection { section: name });
        }
        file.push(name, state);
    }
    if r.remaining() > 0 {
        return Err(CkptError::OrphanBytes {
            offset: r.offset,
            len: r.remaining(),
        });
    }
    Ok(file)
}

/// The old `validate`.
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
    let header_body = r.peek(8)?.to_vec();
    let version = r.u32()?;
    let count = r.u32()?;
    let hcrc = r.u32()?;
    if crc32(&header_body) != hcrc {
        return Err(CkptError::HeaderChecksum);
    }
    Ok((version, count))
}

fn read_section(r: &mut Reader<'_>) -> Result<(String, State), CkptError> {
    let section_offset = r.offset;
    let nlen = r.u32()? as usize;
    let name_bytes = r.take(nlen)?.to_vec();
    let plen = r.u64()? as usize;
    let payload_offset = r.offset;
    let payload = r.take(plen)?.to_vec();
    let crc = r.u32()?;
    let name = String::from_utf8(name_bytes.clone()).map_err(|_| CkptError::Malformed {
        offset: section_offset,
        what: "section name is not UTF-8".to_string(),
    })?;
    let mut crc_input = name_bytes;
    crc_input.extend_from_slice(&payload);
    if crc32(&crc_input) != crc {
        return Err(CkptError::SectionChecksum { section: name });
    }
    let state = decode_state(&payload, payload_offset)?;
    Ok((name, state))
}

pub fn encode_state(state: &State) -> Vec<u8> {
    let mut out = Vec::new();
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
                for &d in shape {
                    out.extend_from_slice(&(d as u64).to_le_bytes());
                }
                for v in data {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Value::U64s(v) => {
                out.push(TAG_U64S);
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Value::F64s(v) => {
                out.push(TAG_F64S);
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for x in v {
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
        }
    }
    out
}

fn decode_state(payload: &[u8], base_offset: usize) -> Result<State, CkptError> {
    let mut r = Reader::with_base(payload, base_offset);
    let count = r.u32()?;
    let mut state = State::new();
    for _ in 0..count {
        let entry_offset = r.offset;
        let klen = r.u32()? as usize;
        let key = String::from_utf8(r.take(klen)?.to_vec()).map_err(|_| CkptError::Malformed {
            offset: entry_offset,
            what: "entry key is not UTF-8".to_string(),
        })?;
        if state.get(&key).is_ok() {
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
                let s =
                    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| CkptError::Malformed {
                        offset: entry_offset,
                        what: format!("string value of `{key}` is not UTF-8"),
                    })?;
                Value::Str(s)
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
                let mut data = Vec::with_capacity(elems.min(r.remaining() / 4 + 1));
                for _ in 0..elems {
                    data.push(f32::from_bits(r.u32()?));
                }
                Value::F32s { shape, data }
            }
            TAG_U64S => {
                let len = r.u64()? as usize;
                let mut v = Vec::with_capacity(len.min(r.remaining() / 8 + 1));
                for _ in 0..len {
                    v.push(r.u64()?);
                }
                Value::U64s(v)
            }
            TAG_F64S => {
                let len = r.u64()? as usize;
                let mut v = Vec::with_capacity(len.min(r.remaining() / 8 + 1));
                for _ in 0..len {
                    v.push(f64::from_bits(r.u64()?));
                }
                Value::F64s(v)
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

    fn u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}
