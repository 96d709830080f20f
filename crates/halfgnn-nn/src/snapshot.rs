//! Deterministic model-weight snapshots: the trainer writes, the serving
//! engine consumes.
//!
//! Same durability discipline as the tuner's plan cache: saves go through
//! a pid-suffixed sibling temp file and an atomic rename, and decoding is
//! torn-file-tolerant — any truncated, corrupted, or wrong-version file
//! loads as `None`, never a panic or silently wrong weights. The payload
//! is raw IEEE bits in hex (u32 per f32 element, u16 per f16 element)
//! with a splitmix64 rolling checksum, so round-trips are bit-exact for
//! both dtypes and the file is byte-identical across hosts.

use crate::models::ModelKind;
use halfgnn_half::slice::{f32_slice_to_half, half_slice_to_f32};
use halfgnn_half::{splitmix64, Half};
use std::io;
use std::path::Path;

const MAGIC: &str = "halfgnn-snapshot v1";
const WORDS_PER_LINE: usize = 16;

/// Storage precision of a snapshot payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotDtype {
    F32,
    F16,
}

#[derive(Clone, Debug, PartialEq)]
enum Payload {
    F32(Vec<f32>),
    F16(Vec<Half>),
}

/// A trained model's flattened parameters plus the dims needed to
/// reconstruct them.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelSnapshot {
    pub model: ModelKind,
    pub f_in: usize,
    pub hidden: usize,
    pub classes: usize,
    payload: Payload,
}

fn model_tag(m: ModelKind) -> &'static str {
    match m {
        ModelKind::Gcn => "gcn",
        ModelKind::Gat => "gat",
        ModelKind::Gin => "gin",
        ModelKind::Sage => "sage",
    }
}

fn parse_model(tag: &str) -> Option<ModelKind> {
    match tag {
        "gcn" => Some(ModelKind::Gcn),
        "gat" => Some(ModelKind::Gat),
        "gin" => Some(ModelKind::Gin),
        "sage" => Some(ModelKind::Sage),
        _ => None,
    }
}

fn checksum(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0u64, |acc, w| splitmix64(acc ^ w))
}

impl ModelSnapshot {
    /// Snapshot f32 master weights as-is (bit-exact round trip).
    pub fn from_f32(
        model: ModelKind,
        f_in: usize,
        hidden: usize,
        classes: usize,
        flat: &[f32],
    ) -> ModelSnapshot {
        ModelSnapshot { model, f_in, hidden, classes, payload: Payload::F32(flat.to_vec()) }
    }

    /// Snapshot weights quantized to f16 — half the bytes on disk and in
    /// a serving cache, at the cost of one round-to-nearest-even cast.
    /// The *stored f16 bits* round-trip exactly.
    pub fn from_f32_as_f16(
        model: ModelKind,
        f_in: usize,
        hidden: usize,
        classes: usize,
        flat: &[f32],
    ) -> ModelSnapshot {
        ModelSnapshot {
            model,
            f_in,
            hidden,
            classes,
            payload: Payload::F16(f32_slice_to_half(flat)),
        }
    }

    pub fn dtype(&self) -> SnapshotDtype {
        match self.payload {
            Payload::F32(_) => SnapshotDtype::F32,
            Payload::F16(_) => SnapshotDtype::F16,
        }
    }

    /// Number of parameters in the payload.
    pub fn len(&self) -> usize {
        match &self.payload {
            Payload::F32(v) => v.len(),
            Payload::F16(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat parameter vector in f32 (f16 payloads are widened — each
    /// f16 bit pattern maps to exactly one f32, so this loses nothing the
    /// snapshot stored).
    pub fn flat_f32(&self) -> Vec<f32> {
        match &self.payload {
            Payload::F32(v) => v.clone(),
            Payload::F16(v) => half_slice_to_f32(v),
        }
    }

    /// The raw f16 payload, when that is the stored dtype.
    pub fn bits_f16(&self) -> Option<&[Half]> {
        match &self.payload {
            Payload::F16(v) => Some(v),
            Payload::F32(_) => None,
        }
    }

    fn payload_words(&self) -> Vec<u64> {
        match &self.payload {
            Payload::F32(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
            Payload::F16(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
        }
    }

    /// Serialize to the on-disk text form. Deterministic: the same
    /// snapshot always encodes to the same bytes.
    pub fn encode(&self) -> String {
        let words = self.payload_words();
        let (dtype_tag, width) = match self.dtype() {
            SnapshotDtype::F32 => ("f32", 8),
            SnapshotDtype::F16 => ("f16", 4),
        };
        let mut s = String::new();
        s.push_str(MAGIC);
        s.push('\n');
        s.push_str(&format!("model {}\n", model_tag(self.model)));
        s.push_str(&format!("dims {} {} {}\n", self.f_in, self.hidden, self.classes));
        s.push_str(&format!("dtype {dtype_tag}\n"));
        s.push_str(&format!("len {}\n", words.len()));
        for chunk in words.chunks(WORDS_PER_LINE) {
            for (i, w) in chunk.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                s.push_str(&format!("{w:0width$x}"));
            }
            s.push('\n');
        }
        s.push_str(&format!("sum {:016x}\n", checksum(words.iter().copied())));
        s.push_str("end\n");
        s
    }

    /// Parse the on-disk form. Any deviation — bad magic, unknown model
    /// or dtype, short or long payload, checksum mismatch, missing `end`
    /// terminator — yields `None`.
    pub fn decode(text: &str) -> Option<ModelSnapshot> {
        let mut lines = text.lines();
        if lines.next()? != MAGIC {
            return None;
        }
        let model = parse_model(lines.next()?.strip_prefix("model ")?)?;
        let mut dims = lines.next()?.strip_prefix("dims ")?.split(' ');
        let f_in: usize = dims.next()?.parse().ok()?;
        let hidden: usize = dims.next()?.parse().ok()?;
        let classes: usize = dims.next()?.parse().ok()?;
        if dims.next().is_some() {
            return None;
        }
        let dtype = match lines.next()?.strip_prefix("dtype ")? {
            "f32" => SnapshotDtype::F32,
            "f16" => SnapshotDtype::F16,
            _ => return None,
        };
        let len: usize = lines.next()?.strip_prefix("len ")?.parse().ok()?;
        let mut words: Vec<u64> = Vec::with_capacity(len);
        while words.len() < len {
            for tok in lines.next()?.split(' ') {
                if words.len() == len {
                    return None; // payload line longer than declared
                }
                words.push(u64::from_str_radix(tok, 16).ok()?);
            }
        }
        let sum = u64::from_str_radix(lines.next()?.strip_prefix("sum ")?, 16).ok()?;
        // The terminator must be the final line *and* newline-complete:
        // `lines()` yields "end" even without its trailing newline, and a
        // write torn one byte short of complete must still read as torn.
        if sum != checksum(words.iter().copied())
            || lines.next()? != "end"
            || lines.next().is_some()
            || !text.ends_with("end\n")
        {
            return None;
        }
        let payload = match dtype {
            SnapshotDtype::F32 => {
                if words.iter().any(|&w| w > u32::MAX as u64) {
                    return None;
                }
                Payload::F32(words.iter().map(|&w| f32::from_bits(w as u32)).collect())
            }
            SnapshotDtype::F16 => {
                if words.iter().any(|&w| w > u16::MAX as u64) {
                    return None;
                }
                Payload::F16(words.iter().map(|&w| Half::from_bits(w as u16)).collect())
            }
        };
        Some(ModelSnapshot { model, f_in, hidden, classes, payload })
    }

    /// Write atomically: pid-suffixed sibling temp file, then rename, so
    /// a concurrent reader sees either the old complete file or the new
    /// one — never a torn mix.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)
    }

    /// Load from `path`; missing, unreadable, or torn files yield `None`.
    pub fn load(path: &Path) -> Option<ModelSnapshot> {
        ModelSnapshot::decode(&std::fs::read_to_string(path).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weird_f32s() -> Vec<f32> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.5,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 2.0, // subnormal
            f32::MAX,
            std::f32::consts::PI,
            -2.7182818e-12,
            65504.0,
        ]
    }

    #[test]
    fn f32_round_trip_is_bit_exact() {
        let snap = ModelSnapshot::from_f32(ModelKind::Gcn, 8, 6, 2, &weird_f32s());
        let back = ModelSnapshot::decode(&snap.encode()).expect("decode");
        assert_eq!(back, snap);
        let bits: Vec<u32> = back.flat_f32().iter().map(|v| v.to_bits()).collect();
        let orig: Vec<u32> = weird_f32s().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, orig);
    }

    #[test]
    fn f16_round_trip_preserves_half_bits_exactly() {
        let snap = ModelSnapshot::from_f32_as_f16(ModelKind::Sage, 16, 8, 4, &weird_f32s());
        let back = ModelSnapshot::decode(&snap.encode()).expect("decode");
        assert_eq!(back.dtype(), SnapshotDtype::F16);
        assert_eq!(
            back.bits_f16().unwrap().iter().map(|h| h.to_bits()).collect::<Vec<_>>(),
            snap.bits_f16().unwrap().iter().map(|h| h.to_bits()).collect::<Vec<_>>()
        );
        // And widening back to f32 matches the quantize-then-widen path.
        assert_eq!(back.flat_f32(), snap.flat_f32());
    }

    #[test]
    fn checksum_line_is_pinned() {
        // The checksum is part of the file format: files written by any
        // earlier build must keep decoding.
        let text = ModelSnapshot::from_f32(ModelKind::Gcn, 1, 1, 1, &[1.0, -2.5, 0.0]).encode();
        assert!(text.contains("\nsum 4d01bea04c159201\n"), "{text}");
    }

    #[test]
    fn encode_is_deterministic() {
        let a = ModelSnapshot::from_f32(ModelKind::Gat, 8, 6, 2, &weird_f32s());
        assert_eq!(a.encode(), a.encode());
        assert_eq!(ModelSnapshot::decode(&a.encode()).unwrap().encode(), a.encode());
    }

    #[test]
    fn every_torn_prefix_decodes_to_none() {
        // A crash can leave any byte prefix on disk; every one must be
        // rejected (the payload is length-declared and checksummed, so no
        // proper prefix can masquerade as complete).
        let text = ModelSnapshot::from_f32(ModelKind::Gcn, 8, 6, 2, &vec![0.125f32; 100]).encode();
        for i in 0..text.len() {
            assert!(
                ModelSnapshot::decode(&text[..i]).is_none(),
                "prefix of {i} bytes decoded as a complete snapshot"
            );
        }
        assert!(ModelSnapshot::decode(&text).is_some());
    }

    #[test]
    fn corrupted_payloads_and_headers_are_rejected() {
        let snap = ModelSnapshot::from_f32(ModelKind::Gcn, 8, 6, 2, &weird_f32s());
        let text = snap.encode();
        // Flip one payload nibble: checksum catches it.
        let flipped = text.replacen("3f800000", "3f800001", 1);
        assert_ne!(flipped, text, "test needs the 1.0 bit pattern present");
        assert!(ModelSnapshot::decode(&flipped).is_none());
        for bad in [
            text.replace(MAGIC, "halfgnn-snapshot v0"),
            text.replace("model gcn", "model transformer"),
            text.replace("dtype f32", "dtype f64"),
            text.replace("\nend\n", "\n"),
        ] {
            assert!(ModelSnapshot::decode(&bad).is_none(), "accepted: {bad:.60}");
        }
    }

    #[test]
    fn save_load_round_trip_and_missing_file() {
        let dir = std::env::temp_dir().join("halfgnn-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.snap");
        let snap = ModelSnapshot::from_f32(ModelKind::Gin, 8, 6, 2, &weird_f32s());
        snap.save(&path).unwrap();
        assert_eq!(ModelSnapshot::load(&path), Some(snap.clone()));
        assert_eq!(ModelSnapshot::load(&dir.join("missing.snap")), None);
        // Torn file on disk loads as None, and a fresh save repairs it.
        let text = snap.encode();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(ModelSnapshot::load(&path), None);
        snap.save(&path).unwrap();
        assert_eq!(ModelSnapshot::load(&path), Some(snap));
        std::fs::remove_file(&path).ok();
    }
}
