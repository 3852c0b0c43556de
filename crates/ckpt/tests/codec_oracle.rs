//! The single-pass codec against the element-wise one it replaced
//! (`oracle/`): same checksums, same bytes, same accepted inputs, same
//! errors — and a committed golden file, so the format is pinned by bytes
//! on disk rather than by whichever encoder happens to be in the tree.

mod oracle;

use aibench::registry::Registry;
use aibench_ckpt::{crc32, validate, Crc32, SnapshotFile, State};

/// Position-dependent bytes, so a skipped or reordered byte shows.
fn noise(len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9u32;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 11) as u8
        })
        .collect()
}

#[test]
fn crc_matches_the_bit_serial_oracle_at_every_length_and_alignment() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(oracle::crc32(b"123456789"), 0xCBF4_3926);
    let buf = noise(16 + 257);
    for start in 0..16 {
        for len in 0..=257 {
            let piece = &buf[start..start + len];
            assert_eq!(
                crc32(piece),
                oracle::crc32(piece),
                "start {start} len {len}"
            );
        }
    }
}

#[test]
fn crc_streamed_in_any_two_pieces_matches_the_oracle() {
    let buf = noise(67);
    let whole = oracle::crc32(&buf);
    for split in 0..=buf.len() {
        let mut crc = Crc32::new();
        crc.update(&buf[..split]);
        crc.update(&buf[split..]);
        assert_eq!(crc.finish(), whole, "split at {split}");
    }
}

#[test]
fn every_registry_benchmark_encodes_to_the_oracle_bytes() {
    let registry = Registry::all();
    assert_eq!(registry.benchmarks().len(), 24);
    for benchmark in registry.benchmarks() {
        let code = benchmark.id.code();
        let mut meta = State::new();
        meta.put_str("code", code);
        meta.put_u64("seed", 3);
        let mut trainer = State::new();
        benchmark.build(3).save_state(&mut trainer);
        let mut file = SnapshotFile::new();
        file.push("meta", meta);
        file.push("trainer", trainer);

        let bytes = file.to_bytes();
        assert!(
            bytes == oracle::to_bytes(&file),
            "{code}: encoders disagree"
        );
        assert!(validate(&bytes).is_empty(), "{code}: lint");
        let decoded = SnapshotFile::from_bytes(&bytes).expect("own bytes decode");
        assert!(decoded == file, "{code}: round trip");
        assert!(
            oracle::from_bytes(&bytes).as_ref() == Ok(&file),
            "{code}: oracle decode"
        );
    }
}

/// One small section of every value type, including an empty tensor, a
/// rank-0 tensor and non-finite floats.
fn small_state() -> State {
    let mut s = State::new();
    s.put_u64("epoch", 41);
    s.put_f32("lr", -0.0);
    s.put_f64("quality", f64::NAN);
    s.put_bool("done", true);
    s.put_str("code", "DC-AI-Cé");
    s.put_f32s(
        "w",
        &[2, 3],
        vec![1.0, -2.5, 0.0, f32::NAN, f32::INFINITY, 5.5],
    );
    s.put_f32s("empty", &[0, 7], vec![]);
    s.put_f32s("scalar", &[], vec![9.25]);
    s.put_u64s("epochs", vec![1, u64::MAX, 3]);
    s.put_f64s("trace", vec![0.25, f64::NEG_INFINITY, 1e-310]);
    s.put_u64s("none", vec![]);
    s
}

fn small_file() -> SnapshotFile {
    let mut meta = State::new();
    meta.put_str("label", "golden");
    meta.put_u64("seed", 7);
    let mut file = SnapshotFile::new();
    file.push("meta", meta);
    file.push("trainer", small_state());
    file.push("void", State::new());
    file
}

/// Both decoders and both linters on the same input.
fn assert_same_verdict(bytes: &[u8], what: &str) {
    assert_eq!(
        SnapshotFile::from_bytes(bytes),
        oracle::from_bytes(bytes),
        "strict decode: {what}"
    );
    assert_eq!(validate(bytes), oracle::validate(bytes), "lint: {what}");
}

#[test]
fn truncation_at_every_length_reports_the_oracle_error() {
    let bytes = small_file().to_bytes();
    assert_eq!(bytes, oracle::to_bytes(&small_file()));
    for cut in 0..=bytes.len() {
        assert_same_verdict(&bytes[..cut], &format!("cut at {cut}/{}", bytes.len()));
    }
    let mut longer = bytes.clone();
    longer.extend_from_slice(b"stray");
    assert_same_verdict(&longer, "orphan bytes");
}

#[test]
fn every_single_bit_flip_reports_the_oracle_error() {
    let bytes = small_file().to_bytes();
    for idx in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[idx] ^= 1u8 << bit;
            assert!(SnapshotFile::from_bytes(&corrupt).is_err());
            assert_same_verdict(&corrupt, &format!("bit {bit} of byte {idx}"));
        }
    }
}

/// A one-section file around an arbitrary payload, with PLEN and CRC made
/// right — so defects *inside* the payload reach the entry decoder instead
/// of tripping the section checksum.
fn framed(payload: &[u8]) -> Vec<u8> {
    let name = b"trainer";
    let mut out = SnapshotFile::new().to_bytes();
    // COUNT = 1, and the header checksum over VERSION + COUNT.
    out[12..16].copy_from_slice(&1u32.to_le_bytes());
    let hcrc = oracle::crc32(&out[8..16]);
    out[16..20].copy_from_slice(&hcrc.to_le_bytes());
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc_input = [name.as_slice(), payload].concat();
    out.extend_from_slice(&oracle::crc32(&crc_input).to_le_bytes());
    out
}

#[test]
fn checksummed_but_malformed_payloads_report_the_oracle_error() {
    let payload = oracle::encode_state(&small_state());
    assert_same_verdict(&framed(&payload), "intact payload");
    assert!(SnapshotFile::from_bytes(&framed(&payload)).is_ok());

    // A payload that ends early — inside a key, a scalar, a shape, or a
    // slab at any word phase — with framing that vouches for it.
    for cut in 0..payload.len() {
        let bytes = framed(&payload[..cut]);
        assert!(SnapshotFile::from_bytes(&bytes).is_err(), "cut {cut}");
        assert_same_verdict(&bytes, &format!("payload cut at {cut}/{}", payload.len()));
    }

    // Every byte of the payload overwritten with values that hit length
    // fields hard: counts that overflow `count * width`, counts just past
    // the end, unknown tags, broken UTF-8.
    for idx in 0..payload.len() {
        for value in [0x00, 0x01, 0x7F, 0x80, 0xFF] {
            let mut bent = payload.clone();
            bent[idx] = value;
            assert_same_verdict(&framed(&bent), &format!("payload[{idx}] = {value:#x}"));
        }
    }

    // Slab counts no input could satisfy.
    let mut huge = State::new();
    huge.put_u64s("v", vec![1, 2, 3]);
    let encoded = oracle::encode_state(&huge);
    let count_at = encoded.len() - 3 * 8 - 8;
    for count in [4u64, u64::MAX, u64::MAX / 8, u64::MAX / 8 + 1, 1 << 61] {
        let mut bent = encoded.clone();
        bent[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
        assert_same_verdict(&framed(&bent), &format!("u64 list claiming {count} items"));
    }
}

/// `fixtures/golden-v1.aickpt` was written by the element-wise encoder at
/// the commit before the single-pass codec landed. It must keep decoding
/// to exactly this content and re-encoding to exactly those bytes.
#[test]
fn golden_fixture_decodes_and_re_encodes_byte_identically() {
    let golden: &[u8] = include_bytes!("fixtures/golden-v1.aickpt");
    assert!(validate(golden).is_empty());
    let file = SnapshotFile::from_bytes(golden).expect("the golden file decodes");
    assert_eq!(file, small_file());
    assert_eq!(file.to_bytes(), golden);
    assert_eq!(oracle::to_bytes(&file), golden);
    assert_eq!((golden.len(), crc32(golden)), (414, 0xA0CE_5039));
}
