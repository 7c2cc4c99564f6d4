//! Memory layout management.
//!
//! The paper's time-composability argument (`mbpta-p1`) revolves around
//! *memory layouts changing across software integrations*: a function's
//! code, globals and stack move, producing arbitrarily different cache
//! conflicts under deterministic placement. [`Layout`] models a linker
//! view of memory — named regions allocated at (optionally page-
//! aligned) addresses — and supports re-linking at a different offset
//! to emulate an integration change.

use core::fmt;
use std::collections::BTreeMap;
use tscache_core::addr::Addr;

/// A named, contiguous memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: Addr,
    size: u64,
}

impl Region {
    /// First byte address of the region.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Address `offset` bytes into the region.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= size` (the access would leave the region).
    #[inline]
    pub fn at(&self, offset: u64) -> Addr {
        assert!(offset < self.size, "offset {offset} outside region of {} bytes", self.size);
        self.base.offset(offset)
    }

    /// One-past-the-end address.
    pub fn end(&self) -> Addr {
        self.base.offset(self.size)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.base, self.end())
    }
}

/// A linker-style memory map: named regions allocated sequentially.
///
/// # Examples
///
/// ```
/// use tscache_sim::layout::Layout;
///
/// let mut l = Layout::new(0x1_0000);
/// let code = l.alloc("code", 4096, 4096);
/// let tables = l.alloc("tables", 4096, 4096);
/// assert_eq!(code.base().as_u64(), 0x1_0000);
/// assert_eq!(tables.base().as_u64(), 0x1_1000);
/// assert_eq!(l.region("code"), Some(code));
/// ```
#[derive(Debug, Clone)]
pub struct Layout {
    cursor: u64,
    regions: BTreeMap<String, Region>,
}

impl Layout {
    /// Creates an empty layout starting at `base`.
    pub fn new(base: u64) -> Self {
        Layout { cursor: base, regions: BTreeMap::new() }
    }

    /// Allocates `size` bytes aligned to `align` (power of two) under
    /// `name`, returning the region.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two, `size` is zero, or the
    /// name is already taken.
    pub fn alloc(&mut self, name: &str, size: u64, align: u64) -> Region {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(size > 0, "zero-sized region");
        assert!(!self.regions.contains_key(name), "region {name:?} already allocated");
        let base = (self.cursor + align - 1) & !(align - 1);
        self.cursor = base + size;
        let region = Region { base: Addr::new(base), size };
        self.regions.insert(name.to_string(), region);
        region
    }

    /// Looks a region up by name.
    pub fn region(&self, name: &str) -> Option<Region> {
        self.regions.get(name).copied()
    }

    /// Iterates regions in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Region)> + '_ {
        self.regions.iter().map(|(n, r)| (n.as_str(), *r))
    }

    /// First free address after all allocations.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut l = Layout::new(0x10);
        let a = l.alloc("a", 100, 1);
        let b = l.alloc("b", 64, 4096);
        assert_eq!(a.base().as_u64(), 0x10);
        assert_eq!(b.base().as_u64(), 0x1000);
    }

    #[test]
    fn at_is_bounds_checked() {
        let mut l = Layout::new(0);
        let r = l.alloc("r", 32, 1);
        assert_eq!(r.at(31).as_u64(), 31);
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn at_panics_out_of_bounds() {
        let mut l = Layout::new(0);
        let r = l.alloc("r", 32, 1);
        r.at(32);
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn duplicate_names_rejected() {
        let mut l = Layout::new(0);
        l.alloc("x", 8, 1);
        l.alloc("x", 8, 1);
    }

    #[test]
    fn iter_in_name_order() {
        let mut l = Layout::new(0);
        l.alloc("b", 8, 1);
        l.alloc("a", 8, 1);
        let names: Vec<&str> = l.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
