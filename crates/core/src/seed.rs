//! Placement seeds and process identifiers.
//!
//! A [`Seed`] parameterizes randomized placement: the same (address,
//! seed) pair always maps to the same set, and drawing a fresh seed
//! re-randomizes the whole cache layout (paper §2.1). A [`ProcessId`]
//! names a software unit (an AUTOSAR SWC in the paper's OS model); the
//! TSCache proposal keys seeds by process so attacker and victim layouts
//! are independent (paper §5).

use crate::prng::{mix64, Prng};
use core::fmt;

/// A 64-bit placement seed.
///
/// # Examples
///
/// ```
/// use tscache_core::seed::Seed;
///
/// let s = Seed::new(0xdead_beef);
/// assert_eq!(s.as_u64(), 0xdead_beef);
/// // Derived sub-seeds are deterministic but uncorrelated:
/// assert_ne!(s.derive(0).as_u64(), s.derive(1).as_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Seed(u64);

impl Seed {
    /// The all-zero seed (used by deterministic setups, which ignore it).
    pub const ZERO: Seed = Seed(0);

    /// Creates a seed from a raw 64-bit value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Seed(raw)
    }

    /// Returns the raw value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Draws a fresh random seed from `rng`.
    pub fn random<R: Prng>(rng: &mut R) -> Self {
        Seed(rng.next_u64())
    }

    /// Derives a decorrelated sub-seed, e.g. one per cache level from a
    /// single per-process seed.
    #[inline]
    pub const fn derive(self, stream: u64) -> Seed {
        Seed(mix64(self.0 ^ mix64(stream.wrapping_add(0xa076_1d64_78bd_642f))))
    }
}

impl fmt::Display for Seed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed:{:#018x}", self.0)
    }
}

impl From<u64> for Seed {
    fn from(raw: u64) -> Self {
        Seed(raw)
    }
}

/// Identifier of a software unit (process / AUTOSAR SWC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ProcessId(u16);

impl ProcessId {
    /// The conventional id for the OS itself (paper §5 reserves a seed
    /// for OS invocations).
    pub const OS: ProcessId = ProcessId(0);

    /// Creates a process id.
    #[inline]
    pub const fn new(id: u16) -> Self {
        ProcessId(id)
    }

    /// Returns the raw id.
    #[inline]
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// Returns the id as a usize, for table indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

impl From<u16> for ProcessId {
    fn from(raw: u16) -> Self {
        ProcessId(raw)
    }
}

/// Per-process seed registers of one cache, as the TSCache OS support
/// maintains them (paper Fig. 3: seeds are saved/restored on context
/// switches between SWCs).
#[derive(Debug, Clone, Default)]
pub struct SeedTable {
    seeds: Vec<(ProcessId, Seed)>,
}

impl SeedTable {
    /// Creates an empty table; unknown processes read [`Seed::ZERO`].
    pub fn new() -> Self {
        SeedTable { seeds: Vec::new() }
    }

    /// Sets (or replaces) the seed of `pid`.
    pub fn set(&mut self, pid: ProcessId, seed: Seed) {
        if let Some(entry) = self.seeds.iter_mut().find(|(p, _)| *p == pid) {
            entry.1 = seed;
        } else {
            self.seeds.push((pid, seed));
        }
    }

    /// Returns the seed of `pid`, or [`Seed::ZERO`] if never set.
    pub fn get(&self, pid: ProcessId) -> Seed {
        self.seeds.iter().find(|(p, _)| *p == pid).map(|(_, s)| *s).unwrap_or(Seed::ZERO)
    }

    /// Iterates over `(pid, seed)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Seed)> + '_ {
        self.seeds.iter().copied()
    }

    /// Number of processes with an explicit seed.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether no process has an explicit seed.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::SplitMix64;

    #[test]
    fn derive_is_deterministic_and_stream_separated() {
        let s = Seed::new(42);
        assert_eq!(s.derive(3), s.derive(3));
        assert_ne!(s.derive(0), s.derive(1));
        assert_ne!(Seed::new(1).derive(0), Seed::new(2).derive(0));
    }

    #[test]
    fn random_seed_uses_rng_stream() {
        let mut r1 = SplitMix64::new(9);
        let mut r2 = SplitMix64::new(9);
        assert_eq!(Seed::random(&mut r1), Seed::random(&mut r2));
    }

    #[test]
    fn seed_table_defaults_to_zero() {
        let t = SeedTable::new();
        assert_eq!(t.get(ProcessId::new(5)), Seed::ZERO);
        assert!(t.is_empty());
    }

    #[test]
    fn seed_table_set_get_replace() {
        let mut t = SeedTable::new();
        let p = ProcessId::new(1);
        t.set(p, Seed::new(10));
        assert_eq!(t.get(p), Seed::new(10));
        t.set(p, Seed::new(20));
        assert_eq!(t.get(p), Seed::new(20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ProcessId::new(3).to_string(), "pid:3");
        assert!(Seed::new(0xff).to_string().starts_with("seed:0x"));
    }
}
