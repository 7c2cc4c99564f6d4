//! Address newtypes used throughout the cache models.
//!
//! Two granularities appear in the simulator:
//!
//! * [`Addr`] — a byte address, as issued by a load/store or an
//!   instruction fetch.
//! * [`LineAddr`] — a cache-line address, i.e. the byte address with the
//!   intra-line offset stripped. All placement policies operate on line
//!   addresses because the offset bits never participate in set
//!   selection (paper §2.1).
//!
//! Pages have no type of their own: the `mbpta-p3` checks in
//! [`properties`](crate::properties) build page `p`'s lines as
//! `p * lines_per_page + i`.

use core::fmt;

/// A byte address in the simulated physical address space.
///
/// # Examples
///
/// ```
/// use tscache_core::addr::Addr;
///
/// let a = Addr::new(0x8000_1234);
/// assert_eq!(a.as_u64(), 0x8000_1234);
/// assert_eq!(a.line(5).as_u64(), 0x8000_1234 >> 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates a byte address.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the cache-line address for a line of `2^offset_bits` bytes.
    #[inline]
    pub const fn line(self, offset_bits: u32) -> LineAddr {
        LineAddr(self.0 >> offset_bits)
    }

    /// Returns the byte offset within a line of `2^offset_bits` bytes.
    #[inline]
    pub const fn line_offset(self, offset_bits: u32) -> u64 {
        self.0 & ((1 << offset_bits) - 1)
    }

    /// Returns the address advanced by `bytes`.
    #[inline]
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line address: byte address divided by the line size.
///
/// Placement policies map a `LineAddr` (tag + index bits) to a cache
/// set; the intra-line offset bits are gone at this granularity.
///
/// # Examples
///
/// ```
/// use tscache_core::addr::LineAddr;
///
/// let l = LineAddr::new(0x1000);
/// // With 128 sets the low 7 bits are the index, the rest the tag.
/// assert_eq!(l.index_bits(7), 0x1000 & 0x7f);
/// assert_eq!(l.tag_bits(7), 0x1000 >> 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from its raw (already shifted) value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line-address value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the low `index_bits` bits (the modulo-placement index).
    #[inline]
    pub const fn index_bits(self, index_bits: u32) -> u64 {
        self.0 & ((1 << index_bits) - 1)
    }

    /// Returns everything above the low `index_bits` bits (the tag).
    #[inline]
    pub const fn tag_bits(self, index_bits: u32) -> u64 {
        self.0 >> index_bits
    }

    /// Reconstructs the first byte address of this line.
    #[inline]
    pub const fn base_addr(self, offset_bits: u32) -> Addr {
        Addr(self.0 << offset_bits)
    }

    /// Returns the line advanced by `n` lines.
    #[inline]
    pub const fn offset(self, n: u64) -> LineAddr {
        LineAddr(self.0 + n)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(raw: u64) -> Self {
        LineAddr(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_strips_offset() {
        let a = Addr::new(0b1111_0110);
        assert_eq!(a.line(5).as_u64(), 0b111);
        assert_eq!(a.line_offset(5), 0b10110);
    }

    #[test]
    fn line_index_and_tag_partition_the_address() {
        let l = LineAddr::new(0xdead_beef);
        for bits in [5u32, 7, 11] {
            let rebuilt = (l.tag_bits(bits) << bits) | l.index_bits(bits);
            assert_eq!(rebuilt, l.as_u64());
        }
    }

    #[test]
    fn line_base_addr_round_trips() {
        let a = Addr::new(0x1000);
        assert_eq!(a.line(5).base_addr(5), a);
    }

    #[test]
    fn display_formats_are_nonempty_and_hex() {
        assert_eq!(Addr::new(0xff).to_string(), "0xff");
        assert_eq!(LineAddr::new(0xff).to_string(), "line:0xff");
    }

    #[test]
    fn addr_offset_advances() {
        assert_eq!(Addr::new(4).offset(4), Addr::new(8));
        assert_eq!(LineAddr::new(4).offset(1), LineAddr::new(5));
    }
}
