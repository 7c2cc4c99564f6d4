//! FNV-1a digests — the bit-identity fingerprints of traces and of
//! fleet campaigns (re-exported as `tscache_fleet::digest`). FNV-1a is
//! not cryptographic: it fingerprints determinism, not adversaries.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorbs an `f64` via its IEEE-754 bit pattern (exact, so two
    /// runs agree iff the floats are bit-identical).
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write(&v.to_bits().to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One-shot digest of a byte string.
///
/// # Examples
///
/// ```
/// use tscache_telemetry::digest::fnv64;
///
/// assert_eq!(fnv64(b"trace"), fnv64(b"trace"));
/// assert_ne!(fnv64(b"trace"), fnv64(b"trace!"));
/// ```
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo").write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn u64_and_f64_are_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1).write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2).write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut x = Fnv64::new();
        x.write_f64(1.5);
        let mut y = Fnv64::new();
        y.write_f64(1.5);
        assert_eq!(x.finish(), y.finish());
    }
}
