//! Cache accounting shared by every cache in the workspace (the
//! per-plan isomorphism cache, the daemon's cache of §5.3 class tables
//! keyed by `instance_digest`, the daemon plan cache).

use std::fmt;
use std::ops::{Add, AddAssign};

/// Hit/miss counters for one cache, with the derived rate.
///
/// Replaces the bare `(u64, u64)` tuples the provider APIs used to
/// return: a named struct cannot be destructured in the wrong order,
/// and the rate math lives in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and usually then insert).
    pub misses: u64,
}

impl CacheStats {
    /// A zeroed counter pair.
    pub const ZERO: CacheStats = CacheStats { hits: 0, misses: 0 };

    /// Counters from explicit values.
    #[must_use]
    pub const fn new(hits: u64, misses: u64) -> Self {
        CacheStats { hits, misses }
    }

    /// Total lookups observed.
    #[must_use]
    pub const fn lookups(&self) -> u64 {
        self.hits.saturating_add(self.misses)
    }

    /// `hits / (hits + misses)`, or `0.0` before any lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            return 0.0;
        }
        // u64 → f64 may round above 2^53 lookups; the rate is a
        // diagnostic, not a plan input.
        self.hits as f64 / total as f64
    }
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_add(rhs.hits),
            misses: self.misses.saturating_add(rhs.misses),
        }
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_is_zero_before_any_lookup() {
        assert_eq!(CacheStats::ZERO.hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_matches_counters() {
        let s = CacheStats::new(3, 1);
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn add_sums_fieldwise_and_saturates() {
        let a = CacheStats::new(1, 2) + CacheStats::new(3, 4);
        assert_eq!(a, CacheStats::new(4, 6));
        let b = CacheStats::new(u64::MAX, 0) + CacheStats::new(1, 1);
        assert_eq!(b.hits, u64::MAX);
    }

    #[test]
    fn display_is_human_readable() {
        let s = CacheStats::new(9, 1);
        let text = s.to_string();
        assert!(text.contains("9 hits") && text.contains("90.0%"), "{text}");
    }
}
