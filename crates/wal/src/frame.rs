//! The one CRC frame of the stack, and the bounds-checked primitives
//! every payload in it is built from.
//!
//! The write-ahead log (`crate::record`) and the wire protocol
//! (`ddrs-net`'s codec) solve the same problem — decode untrusted or
//! crash-damaged bytes without ever reading past a buffer or trusting a
//! length — with the same frame:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length `len`, u32 little-endian
//! 4       4     CRC-32 (IEEE polynomial, reflected) of the payload
//! 8       len   payload
//! ```
//!
//! Each caller brings its own payload layout and its own cap on `len`
//! (a local log trusts more than a network peer). The cap guards both
//! directions: a reader treats a declared length above it as corruption
//! rather than an allocation request ([`parse_header`]), and a writer
//! checks [`fits`] where it hands a frame to a sink or socket, so it
//! never emits a frame its own reader would refuse.

use ddrs_rangetree::Point;

/// Bytes of frame header preceding every payload (length + checksum).
pub const FRAME_HEADER: usize = 8;

/// `TABLES[k][b]`: the CRC register after byte `b` and then `k` zero
/// bytes, for the reflected IEEE polynomial. Row 0 is the classic
/// byte-at-a-time table; the other seven let eight bytes fold at once.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ 0xEDB8_8320 } else { c >> 1 };
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected, init/xorout `!0`) — the
/// ubiquitous `crc32` of zlib/gzip, table-driven (slicing-by-8: eight
/// bytes per step, then the tail a byte at a time) to stay
/// dependency-free. Corruption detection only; not cryptographic.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = (c >> 8) ^ TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize];
    }
    !c
}

/// Append a little-endian u32.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u64.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian i64.
#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encoded size of one `D`-dimensional point.
pub const fn point_len(d: usize) -> usize {
    12 + 8 * d
}

/// Append a point: `u32 id · u64 weight · D × i64 coords`.
#[inline]
pub fn put_point<const D: usize>(out: &mut Vec<u8>, p: &Point<D>) {
    put_u32(out, p.id);
    put_u64(out, p.weight);
    for c in &p.coords {
        put_i64(out, *c);
    }
}

/// Whether an encoded frame's payload is within `cap`.
pub fn fits(frame: &[u8], cap: u32) -> bool {
    frame.len().saturating_sub(FRAME_HEADER) <= cap as usize
}

/// Wrap `payload` in a frame (length prefix + checksum). The caller
/// owns the cap: check [`fits`] before handing the frame on.
pub fn wrap(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Split a frame header into the declared payload length and the stored
/// checksum, refusing a length above `cap`.
pub fn parse_header(hdr: [u8; FRAME_HEADER], cap: u32) -> Result<(usize, u32), String> {
    let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    if len > cap {
        return Err(format!("frame length {len} exceeds cap"));
    }
    Ok((len as usize, u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]])))
}

/// Check a complete payload against the checksum its header stored.
pub fn verify(payload: &[u8], stored_crc: u32) -> Result<(), String> {
    if crc32(payload) == stored_crc {
        Ok(())
    } else {
        Err("frame checksum mismatch".into())
    }
}

/// Cursor over a payload with bounds-checked little-endian reads: every
/// accessor returns `None` instead of reading past the buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` bytes, or `None` if fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Next byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Next little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Next little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Next little-endian i64.
    #[inline]
    pub fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }

    /// Next point, as [`put_point`] wrote it.
    #[inline]
    pub fn point<const D: usize>(&mut self) -> Option<Point<D>> {
        let id = self.u32()?;
        let weight = self.u64()?;
        let mut coords = [0i64; D];
        for c in &mut coords {
            *c = self.i64()?;
        }
        Some(Point::weighted(coords, id, weight))
    }

    /// Read an untrusted element count and sanity-check it against the
    /// bytes that remain: `n` elements of at least `min_size` bytes each
    /// cannot decode from fewer than `n * min_size` remaining bytes, so
    /// nothing is ever allocated from a length the payload cannot back.
    pub fn count(&mut self, min_size: usize, what: &str) -> Result<usize, String> {
        let n = self.u32().ok_or_else(|| format!("truncated {what} count"))? as usize;
        if n.saturating_mul(min_size) > self.remaining() {
            return Err(format!("{what} count {n} exceeds payload"));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition [`crc32`]'s tables are checked against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c: u32 = !0;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ 0xEDB8_8320 } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn crc32_is_the_zlib_checksum() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        /// The 8-byte body and the byte-wise tail are different code:
        /// every length up to 64, and every alignment and length of a
        /// slice of a longer buffer, against the bitwise loop.
        #[test]
        fn crc32_equals_the_bitwise_definition(
            buf in proptest::collection::vec(0u16..256, 600..601),
            len in 0usize..65,
            start in 0usize..300,
            long in 0usize..300,
        ) {
            let buf: Vec<u8> = buf.into_iter().map(|b| b as u8).collect();
            proptest::prop_assert_eq!(crc32(&buf[..len]), crc32_bitwise(&buf[..len]));
            let slice = &buf[start..start + long];
            proptest::prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
        }
    }

    #[test]
    fn the_cap_is_enforced_in_both_directions() {
        let frame = wrap(&[7u8; 16]);
        assert!(fits(&frame, 16));
        assert!(!fits(&frame, 15));
        let hdr: [u8; FRAME_HEADER] = frame[..FRAME_HEADER].try_into().unwrap();
        let (len, crc) = parse_header(hdr, 16).unwrap();
        assert_eq!(len, 16);
        assert!(verify(&frame[FRAME_HEADER..], crc).is_ok());
        assert!(verify(&frame[FRAME_HEADER..FRAME_HEADER + 15], crc).is_err());
        // A reader under a tighter cap refuses exactly what `fits` refuses.
        assert!(parse_header(hdr, 15).unwrap_err().contains("exceeds cap"));
    }
}
