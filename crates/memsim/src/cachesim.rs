//! A trace-driven set-associative LRU cache simulator.
//!
//! Used to cross-validate the analytic footprint model on small problem
//! sizes: replaying an interpreter-produced access trace through a
//! simulated cache must show the same qualitative effect the analytic
//! model predicts (fused schedules miss less).

/// A set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheSim {
    line_bytes: u64,
    n_sets: u64,
    ways: usize,
    /// Per set: tags in LRU order (front = most recent).
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// Builds a cache of `capacity_bytes` with the given associativity and
    /// line size.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero sizes or capacity not a
    /// multiple of `ways * line_bytes`).
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(line_bytes > 0 && ways > 0, "degenerate cache geometry");
        let n_sets = capacity_bytes / (ways as u64 * line_bytes);
        assert!(n_sets > 0, "capacity too small for geometry");
        CacheSim {
            line_bytes,
            n_sets,
            ways,
            sets: vec![Vec::new(); n_sets as usize],
            hits: 0,
            misses: 0,
        }
    }

    /// A 32 KiB, 8-way, 64-byte-line L1.
    pub fn l1_32k() -> Self {
        CacheSim::new(32 * 1024, 8, 64)
    }

    /// Accesses a byte address; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set = (line % self.n_sets) as usize;
        let tags = &mut self.sets[set];
        if let Some(pos) = tags.iter().position(|&t| t == line) {
            tags.remove(pos);
            tags.insert(0, line);
            self.hits += 1;
            true
        } else {
            tags.insert(0, line);
            if tags.len() > self.ways {
                tags.pop();
            }
            self.misses += 1;
            false
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (0 when no accesses yet).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Bytes transferred from the next level (misses × line size).
    pub fn traffic_bytes(&self) -> u64 {
        self.misses * self.line_bytes
    }

    /// Resets counters (keeps contents).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// Assigns disjoint base addresses to arrays so interpreter coordinates
/// can be turned into flat addresses.
#[derive(Debug, Clone, Default)]
pub struct AddressMap {
    bases: Vec<(usize, u64, Vec<i64>)>, // (array id, base, shape)
    next: u64,
}

impl AddressMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an array of `shape` with 4-byte elements; returns its id.
    pub fn register(&mut self, array: usize, shape: &[i64]) {
        let len: i64 = shape.iter().product();
        self.bases.push((array, self.next, shape.to_vec()));
        // Pad to line size to avoid artificial conflicts.
        self.next += (len.max(0) as u64) * 4 + 64;
    }

    /// The byte address of `array[coords]`.
    ///
    /// # Panics
    /// Panics if the array was not registered or coords mismatch.
    pub fn addr(&self, array: usize, coords: &[i64]) -> u64 {
        let (_, base, shape) = self
            .bases
            .iter()
            .find(|(a, _, _)| *a == array)
            .expect("array registered");
        assert_eq!(coords.len(), shape.len());
        let mut idx = 0i64;
        for (c, s) in coords.iter().zip(shape) {
            idx = idx * s + c;
        }
        base + (idx as u64) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_scan_misses_once_per_line() {
        let mut c = CacheSim::new(1024, 2, 64);
        for addr in (0..640).step_by(4) {
            c.access(addr);
        }
        // 640 bytes = 10 lines -> 10 misses, 150 hits.
        assert_eq!(c.misses(), 10);
        assert_eq!(c.hits(), 150);
        assert_eq!(c.traffic_bytes(), 640);
    }

    #[test]
    fn reuse_within_capacity_hits() {
        let mut c = CacheSim::new(1024, 2, 64);
        for _ in 0..3 {
            for addr in (0..512).step_by(64) {
                c.access(addr);
            }
        }
        assert_eq!(c.misses(), 8);
        assert_eq!(c.hits(), 16);
    }

    #[test]
    fn capacity_eviction_causes_misses() {
        let mut c = CacheSim::new(1024, 2, 64); // 16 lines
                                                // Touch 32 distinct lines twice: LRU evicts everything between
                                                // rounds (same-set reuse distance exceeds associativity).
        for _ in 0..2 {
            for i in 0..32u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.misses(), 64);
        assert_eq!(c.hits(), 0);
        assert!((c.miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn associativity_preserves_hot_set() {
        // 4-way: 4 hot lines in one set survive round-robin of 4.
        let mut c = CacheSim::new(4 * 64, 4, 64); // 1 set, 4 ways
        for _ in 0..4 {
            for i in 0..4u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.misses(), 4);
        assert_eq!(c.hits(), 12);
    }

    #[test]
    fn reset_counters_keeps_contents() {
        let mut c = CacheSim::l1_32k();
        c.access(0);
        c.reset_counters();
        assert_eq!(c.misses(), 0);
        assert!(c.access(0), "line should still be resident");
    }

    #[test]
    fn address_map_assigns_disjoint_ranges() {
        let mut m = AddressMap::new();
        m.register(0, &[4, 4]);
        m.register(1, &[8]);
        let a = m.addr(0, &[3, 3]);
        let b = m.addr(1, &[0]);
        assert!(b > a);
        assert_eq!(m.addr(0, &[1, 2]), m.addr(0, &[0, 0]) + (4 + 2) * 4);
    }
}
