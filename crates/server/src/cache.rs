//! Plan cache: optimize results keyed by structural hash.
//!
//! Schedules are parametric in the program's parameters, so a cached
//! [`Optimized`] tree is valid for *every* problem size of the same
//! pipeline — a hit skips the entire polyhedral search (zero Omega ops)
//! and goes straight to execution.
//!
//! The cache is a bounded, sharded-by-nothing `Mutex<HashMap>`: plans are
//! small (a schedule tree plus report), the daemon's worker count is in
//! the single digits, and the lock is held only for a clone of an `Arc`.
//! Eviction is whole-sale at capacity: simple, and a cold restart costs
//! one optimize per distinct pipeline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tilefuse_core::Optimized;

/// A concurrent plan cache with hit/miss counters.
#[derive(Debug)]
pub struct PlanCache {
    map: Mutex<HashMap<u64, Arc<Optimized>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a plan, counting the hit or miss.
    pub fn get(&self, key: u64) -> Option<Arc<Optimized>> {
        let found = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a plan, clearing the cache first when at capacity.
    pub fn insert(&self, key: u64, plan: Arc<Optimized>) {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if map.len() >= self.capacity && !map.contains_key(&key) {
            map.clear();
        }
        map.insert(key, plan);
    }

    /// `(hits, misses, entries)` counters for the stats endpoint.
    pub fn stats(&self) -> (u64, u64, usize) {
        let entries = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            entries,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::plan_key;
    use tilefuse_core::{optimize, Options};
    use tilefuse_fuzzgen::{build_program, ProgramSpec, StageKind, StageSpec};

    fn pipeline(size: i64, delta: i64) -> ProgramSpec {
        ProgramSpec {
            size,
            tile: 4,
            smart_startup: false,
            parallel_cap: None,
            param_delta: delta,
            stages: vec![
                StageSpec {
                    kind: StageKind::Point,
                    src: 0,
                    liveout: false,
                },
                StageSpec {
                    kind: StageKind::StencilX(1),
                    src: 1,
                    liveout: true,
                },
            ],
        }
    }

    #[test]
    fn size_parameterized_variants_hit_the_same_entry() {
        let cache = PlanCache::new(16);
        let opts = Options {
            tile_sizes: vec![4, 4],
            ..Options::default()
        };
        // First variant: miss, optimize, insert.
        let p1 = build_program(&pipeline(8, 0)).unwrap();
        let k1 = plan_key(&p1, &opts);
        assert!(cache.get(k1).is_none());
        let plan = Arc::new(optimize(&p1, &opts).unwrap());
        cache.insert(k1, plan);
        // Second variant of the same pipeline at a different size: the
        // same key, so the cached plan is reused with zero Omega ops.
        let p2 = build_program(&pipeline(24, 3)).unwrap();
        let k2 = plan_key(&p2, &opts);
        assert_eq!(k1, k2);
        let hit = cache.get(k2).expect("size variant must hit");
        // The parametric plan executes correctly at the second variant's
        // problem size, bit-exact against the reference.
        let overrides = [("H", 27_i64), ("W", 27_i64)];
        let (exec, _) =
            tilefuse_codegen::execute_tree(&p2, &hit.tree, &overrides, &hit.report.scratch_scopes)
                .unwrap();
        let (reference, _) = tilefuse_codegen::reference_execute(&p2, &overrides).unwrap();
        assert_eq!(
            tilefuse_fuzzgen::output_digest(&p2, &exec),
            tilefuse_fuzzgen::output_digest(&p2, &reference),
        );
        let (hits, misses, entries) = cache.stats();
        assert_eq!((hits, misses, entries), (1, 1, 1));
    }

    #[test]
    fn capacity_clears_wholesale() {
        let cache = PlanCache::new(2);
        let p = build_program(&pipeline(8, 0)).unwrap();
        let plan = Arc::new(optimize(&p, &Options::default()).unwrap());
        cache.insert(1, plan.clone());
        cache.insert(2, plan.clone());
        cache.insert(3, plan); // over capacity: clears, then inserts
        let (_, _, entries) = cache.stats();
        assert_eq!(entries, 1);
        assert!(cache.get(3).is_some());
        assert!(cache.get(1).is_none());
    }
}
