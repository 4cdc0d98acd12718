//! Little-endian binary encoding for the checkpoint format: a tiny
//! writer/reader pair plus CRC32.
//!
//! Everything the [`crate::checkpoint`] module persists — tensors, the
//! [`crate::ParamStore`], Adam moments, the [`crate::TrainGuard`] state —
//! round-trips through these helpers. Floats are written as raw IEEE-754
//! bits ([`f32::to_bits`]), never through a decimal representation, so a
//! save/load cycle is bit-exact by construction.

use crate::tensor::Tensor;
use std::fmt;

/// CRC32 (IEEE 802.3, the zlib polynomial) slice-by-8 lookup tables, built
/// at compile time. `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight table lookups advance the register over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut t = 1;
        while t < 8 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            t += 1;
        }
        i += 1;
    }
    tables
};

/// CRC32 checksum of `data` (IEEE polynomial, standard init/final xor),
/// eight bytes per step (slice-by-8), the tail bytewise.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A decode failure: truncated input, a length that does not fit, or a
/// value that violates the format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err<T>(msg: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError(msg.into()))
}

/// Append-only byte writer for the checkpoint wire format.
///
/// A writer made by `Writer::sizer` stores nothing and only counts: run
/// an encoder through one first, and `Writer::with_capacity` of its
/// `Writer::len` holds the real pass without growing.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// `Some(bytes counted)` on a sizing writer.
    sized: Option<usize>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Empty writer with room for `n` bytes.
    pub(crate) fn with_capacity(n: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(n),
            sized: None,
        }
    }

    /// A writer that counts the bytes written to it and stores none.
    pub(crate) fn sizer() -> Writer {
        Writer {
            buf: Vec::new(),
            sized: Some(0),
        }
    }

    /// Bytes written so far (counted, on a sizing writer).
    pub(crate) fn len(&self) -> usize {
        self.sized.unwrap_or(self.buf.len())
    }

    /// The bytes written so far (none on a sizing writer).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes with no length prefix (the caller delimits them).
    pub fn raw(&mut self, b: &[u8]) {
        match &mut self.sized {
            Some(n) => *n += b.len(),
            None => self.buf.extend_from_slice(b),
        }
    }

    /// Overwrite the bytes at `at` with `b`: the back-patch of a length or
    /// checksum written as a placeholder. A no-op on a sizing writer.
    pub(crate) fn patch(&mut self, at: usize, b: &[u8]) {
        if self.sized.is_none() {
            self.buf[at..at + b.len()].copy_from_slice(b);
        }
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f32` as its raw IEEE-754 bits (bit-exact, NaN included).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Write a UTF-8 string: `u32` byte length + bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.raw(s.as_bytes());
    }

    /// Write a length-prefixed byte blob: `u64` length + bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.raw(b);
    }

    /// Write an optional epoch index: presence byte + `u64`.
    pub fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.usize(x);
            }
            None => self.u8(0),
        }
    }

    /// Write a tensor: shape as two `u64`s + raw `f32` bits row-major.
    pub fn tensor(&mut self, t: &Tensor) {
        self.usize(t.rows());
        self.usize(t.cols());
        if let Some(n) = &mut self.sized {
            *n += 4 * t.len();
            return;
        }
        // One resize, then a straight bit-copy loop: the same bytes as
        // `f32` per element without a capacity check per value.
        let start = self.buf.len();
        self.buf.resize(start + 4 * t.len(), 0);
        for (dst, &x) in self.buf[start..].chunks_exact_mut(4).zip(t.data()) {
            dst.copy_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

/// Sequential reader over checkpoint bytes, with bounds-checked takes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return err(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u64` as a `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError(format!("length {v} exceeds usize")))
    }

    /// Read raw IEEE-754 bits as an `f32`.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Read a UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError("invalid UTF-8 string".into()))
    }

    /// Read a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read an optional epoch index.
    pub fn opt_usize(&mut self) -> Result<Option<usize>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.usize()?)),
            b => err(format!("invalid Option tag {b}")),
        }
    }

    /// Read a tensor written by [`Writer::tensor`].
    pub fn tensor(&mut self) -> Result<Tensor, DecodeError> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        // Both multiplications are checked: an adversarial or corrupt header
        // can carry shapes whose element count fits `usize` but whose byte
        // count does not, and `n * 4` unchecked would panic under
        // debug-assertions (or wrap in release, defeating the bounds check).
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| DecodeError(format!("tensor shape {rows}x{cols} overflows")))?;
        let bytes = n.checked_mul(4).ok_or_else(|| {
            DecodeError(format!("tensor shape {rows}x{cols} byte size overflows"))
        })?;
        if self.remaining() < bytes {
            return err(format!(
                "truncated tensor: shape {rows}x{cols} needs {bytes} bytes, have {}",
                self.remaining()
            ));
        }
        let data = self
            .take(bytes)?
            .chunks_exact(4)
            .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
            .collect();
        Ok(Tensor::from_vec(rows, cols, data))
    }

    /// Assert the whole buffer was consumed (trailing garbage is corruption).
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return err(format!("{} trailing bytes after payload", self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The classic one-table, one-byte-per-step CRC32 (the reference the
    /// slice-by-8 form must reproduce).
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn slice_by_8_crc_matches_bytewise_reference() {
        for (seed, len) in [
            (1u64, 0usize),
            (2, 1),
            (3, 7),
            (4, 8),
            (5, 9),
            (6, 63),
            (7, 4097),
        ] {
            let buf = noise(len + 8, seed);
            // Every start offset modulo 8, so the 8-byte steps straddle the
            // buffer's alignment in every way, and odd tail lengths.
            for start in 0..8 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} start {start}");
            }
        }
    }

    #[test]
    fn bulk_tensor_encoding_matches_per_element_encoding() {
        let mut vals: Vec<f32> = noise(4 * 37, 11)
            .chunks_exact(4)
            .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
            .collect();
        vals.extend([
            -0.0,
            0.0,
            f32::NAN,
            -f32::INFINITY,
            1e-40,
            f32::MIN_POSITIVE,
        ]);
        let t = Tensor::from_vec(43, 1, vals);
        let mut bulk = Writer::new();
        bulk.tensor(&t);
        // The byte-at-a-time encoding the bulk path replaced.
        let mut each = Writer::new();
        each.usize(t.rows());
        each.usize(t.cols());
        for &x in t.data() {
            each.f32(x);
        }
        assert_eq!(bulk.as_bytes(), each.as_bytes());
        let back = Reader::new(bulk.as_bytes()).tensor().unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&t));
    }

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f32(f32::NAN);
        w.f32(-0.0);
        w.str("héllo");
        w.opt_usize(Some(42));
        w.opt_usize(None);
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_usize().unwrap(), Some(42));
        assert_eq!(r.opt_usize().unwrap(), None);
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn tensor_roundtrip_is_bit_exact() {
        let t = Tensor::from_vec(2, 3, vec![1.5, -0.0, f32::MIN_POSITIVE, 1e-40, 3.0, -7.25]);
        let mut w = Writer::new();
        w.tensor(&t);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = r.tensor().unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in back.data().iter().zip(t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupt_header_byte_count_overflow_is_an_error() {
        // A header whose element count fits usize but whose byte count
        // (n * 4) overflows must decode to a clean error, never a panic or
        // a wrapped-length bounds check that admits a huge allocation.
        let mut w = Writer::new();
        w.usize(usize::MAX / 2); // rows
        w.usize(1); // cols: n = usize::MAX / 2, n * 4 overflows
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let e = r.tensor().unwrap_err();
        assert!(e.0.contains("overflow"), "unexpected error: {e}");

        // rows * cols itself overflowing stays an error too.
        let mut w2 = Writer::new();
        w2.usize(usize::MAX);
        w2.usize(2);
        let bytes2 = w2.into_bytes();
        assert!(Reader::new(&bytes2).tensor().is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new();
        w.tensor(&Tensor::zeros(4, 4));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 1]);
        assert!(r.tensor().is_err());
        // Trailing garbage also fails.
        let mut extended = bytes.clone();
        extended.push(0);
        let mut r2 = Reader::new(&extended);
        r2.tensor().unwrap();
        assert!(r2.finish().is_err());
    }
}
