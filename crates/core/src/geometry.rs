//! Cache geometry: sets × ways × line size, plus the derived bit-field
//! arithmetic shared by every placement policy.

use crate::addr::{Addr, LineAddr};
use crate::error::ConfigError;
use core::fmt;

/// The shape of a set-associative cache.
///
/// All three parameters must be powers of two; this is validated by
/// [`CacheGeometry::new`], so a constructed geometry can hand out
/// bit-field helpers without further checking.
///
/// # Examples
///
/// ```
/// use tscache_core::geometry::CacheGeometry;
///
/// // The paper's L1: 16 KiB, 128 sets, 4 ways, 32-byte lines.
/// let g = CacheGeometry::new(128, 4, 32)?;
/// assert_eq!(g.size_bytes(), 16 * 1024);
/// assert_eq!(g.offset_bits(), 5);
/// assert_eq!(g.index_bits(), 7);
/// assert_eq!(g.way_size_bytes(), 4096);
/// # Ok::<(), tscache_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    sets: u32,
    ways: u32,
    line_bytes: u32,
}

impl CacheGeometry {
    /// Creates a geometry after validating that every parameter is a
    /// non-zero power of two.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `sets`, `ways` or `line_bytes` is zero
    /// or not a power of two.
    pub fn new(sets: u32, ways: u32, line_bytes: u32) -> Result<Self, ConfigError> {
        fn pow2(name: &'static str, v: u32) -> Result<(), ConfigError> {
            if v == 0 || !v.is_power_of_two() {
                Err(ConfigError::not_power_of_two(name, v))
            } else {
                Ok(())
            }
        }
        pow2("sets", sets)?;
        pow2("ways", ways)?;
        pow2("line_bytes", line_bytes)?;
        Ok(CacheGeometry { sets, ways, line_bytes })
    }

    /// The paper's L1 geometry: 16 KiB, 128 sets, 4 ways, 32 B lines
    /// (ARM920T-class, §6.1.2).
    pub fn paper_l1() -> Self {
        CacheGeometry { sets: 128, ways: 4, line_bytes: 32 }
    }

    /// The paper's L2 geometry: 256 KiB, 2048 sets, 4 ways, 32 B lines.
    pub fn paper_l2() -> Self {
        CacheGeometry { sets: 2048, ways: 4, line_bytes: 32 }
    }

    /// The extended three-level scenario's L3: 1 MiB, 8192 sets,
    /// 4 ways, 32 B lines — the shared last level the multi-level
    /// randomized-cache literature evaluates (not in the DAC'18
    /// platform, which stops at L2).
    pub fn paper_l3() -> Self {
        CacheGeometry { sets: 8192, ways: 4, line_bytes: 32 }
    }

    /// Number of sets.
    #[inline]
    pub const fn sets(&self) -> u32 {
        self.sets
    }

    /// Number of ways (associativity).
    #[inline]
    pub const fn ways(&self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    #[inline]
    pub const fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Total capacity in bytes.
    #[inline]
    pub const fn size_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes as u64
    }

    /// Size of one way in bytes (`sets × line_bytes`). Random Modulo is
    /// applicable when the page size equals or is a multiple of this.
    #[inline]
    pub const fn way_size_bytes(&self) -> u64 {
        self.sets as u64 * self.line_bytes as u64
    }

    /// Number of intra-line offset bits.
    #[inline]
    pub const fn offset_bits(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// Number of set-index bits.
    #[inline]
    pub const fn index_bits(&self) -> u32 {
        self.sets.trailing_zeros()
    }

    /// Total number of lines the cache can hold.
    #[inline]
    pub const fn total_lines(&self) -> u32 {
        self.sets * self.ways
    }

    /// Converts a byte address to its line address.
    #[inline]
    pub const fn line_of(&self, addr: Addr) -> LineAddr {
        addr.line(self.offset_bits())
    }

    /// The line-address range `first..end` that `size` bytes at `start`
    /// touch: every line holding one of the bytes, and an empty range
    /// (`first..first`) when `size` is 0.
    pub(crate) const fn line_range(&self, start: Addr, size: u64) -> (LineAddr, LineAddr) {
        let first = self.line_of(start);
        if size == 0 {
            return (first, first);
        }
        (first, self.line_of(start.offset(size - 1)).offset(1))
    }

    /// Modulo set index of a line (the deterministic baseline mapping).
    #[inline]
    pub const fn modulo_index(&self, line: LineAddr) -> u32 {
        line.index_bits(self.index_bits()) as u32
    }

    /// Tag of a line (everything above the index bits).
    #[inline]
    pub const fn tag_of(&self, line: LineAddr) -> u64 {
        line.tag_bits(self.index_bits())
    }

    /// Whether Random Modulo placement is applicable for pages of
    /// `2^page_bits` bytes: the page size must equal or be a multiple of
    /// the way size (paper §4).
    pub fn random_modulo_compatible(&self, page_bits: u32) -> bool {
        let page = 1u64 << page_bits;
        let way = self.way_size_bytes();
        page >= way && page.is_multiple_of(way)
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}B ({} sets x {} ways x {}B lines)",
            self.size_bytes(),
            self.sets,
            self.ways,
            self.line_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_matches_spec() {
        let g = CacheGeometry::paper_l1();
        assert_eq!(g.size_bytes(), 16 * 1024);
        assert_eq!(g.sets(), 128);
        assert_eq!(g.ways(), 4);
        assert_eq!(g.line_bytes(), 32);
        assert_eq!(g.offset_bits(), 5);
        assert_eq!(g.index_bits(), 7);
        assert_eq!(g.total_lines(), 512);
    }

    #[test]
    fn paper_l2_matches_spec() {
        let g = CacheGeometry::paper_l2();
        assert_eq!(g.size_bytes(), 256 * 1024);
        assert_eq!(g.sets(), 2048);
        assert_eq!(g.index_bits(), 11);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(CacheGeometry::new(100, 4, 32).is_err());
        assert!(CacheGeometry::new(128, 3, 32).is_err());
        assert!(CacheGeometry::new(128, 4, 48).is_err());
        assert!(CacheGeometry::new(0, 4, 32).is_err());
    }

    #[test]
    fn error_message_names_the_field() {
        let err = CacheGeometry::new(100, 4, 32).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("sets"), "message was: {msg}");
    }

    #[test]
    fn modulo_index_and_tag() {
        let g = CacheGeometry::paper_l1();
        let line = LineAddr::new(0b1011_0101_1010);
        assert_eq!(g.modulo_index(line), 0b101_1010);
        assert_eq!(g.tag_of(line), 0b10110);
    }

    #[test]
    fn l1_is_rm_compatible_l2_is_not() {
        // 4 KiB pages: way size of L1 is 4 KiB (compatible), L2's way is
        // 64 KiB (not compatible) — matching the paper's L1=RM, L2=HashRP
        // choice.
        assert!(CacheGeometry::paper_l1().random_modulo_compatible(12));
        assert!(!CacheGeometry::paper_l2().random_modulo_compatible(12));
    }

    #[test]
    fn line_of_uses_offset_bits() {
        let g = CacheGeometry::paper_l1();
        assert_eq!(g.line_of(Addr::new(0x40)).as_u64(), 2);
    }

    #[test]
    fn display_mentions_shape() {
        let s = CacheGeometry::paper_l1().to_string();
        assert!(s.contains("128 sets"));
    }
}
