//! Deterministic work counters: memo hits and misses, arena interning and
//! learned-structure sizes, taken as deltas of the engine's own counters
//! around each learn, plus conversation quality.

use semantic_strings::arena::ArenaStats;
use semantic_strings::core::DagCacheStats;
use semantic_strings::service::Engine;

use crate::report::Report;

/// Engine counters read before a learn; `None` when nothing is counted.
pub struct Before(Option<(DagCacheStats, ArenaStats)>);

#[derive(Debug, Default)]
pub struct Counters {
    on: bool,
    cache: DagCacheStats,
    arena_interned: i64,
    arena_stored: i64,
    arena_resident_bytes: i64,
    pub dstruct_size: u64,
    examples_used: u64,
    unconverged: u64,
}

impl Counters {
    /// Counters that read engine statistics only when `on` (the traced
    /// run); conversation quality is counted either way.
    pub fn new(on: bool) -> Counters {
        Counters {
            on,
            ..Counters::default()
        }
    }

    pub fn snapshot(&self, engine: &Engine, count: bool) -> Before {
        Before((self.on && count).then(|| (engine.cache_stats(), engine.arena_stats())))
    }

    pub fn delta(&mut self, engine: &Engine, before: Before) {
        let Some((cache, arena)) = before.0 else {
            return;
        };
        self.add(&cache, &engine.cache_stats(), &arena, &engine.arena_stats());
    }

    /// Adds the difference `before → after` of one engine's counters.
    pub fn add(
        &mut self,
        cache: &DagCacheStats,
        cache_after: &DagCacheStats,
        arena: &ArenaStats,
        arena_after: &ArenaStats,
    ) {
        let c = &mut self.cache;
        c.dag_hits += cache_after.dag_hits - cache.dag_hits;
        c.dag_misses += cache_after.dag_misses - cache.dag_misses;
        c.example_hits += cache_after.example_hits - cache.example_hits;
        c.example_misses += cache_after.example_misses - cache.example_misses;
        c.intersect_hits += cache_after.intersect_hits - cache.intersect_hits;
        c.intersect_misses += cache_after.intersect_misses - cache.intersect_misses;
        self.arena_interned += arena_after.interned as i64 - arena.interned as i64;
        self.arena_stored += arena_after.stored as i64 - arena.stored as i64;
        self.arena_resident_bytes +=
            arena_after.resident_bytes as i64 - arena.resident_bytes as i64;
    }

    /// Records one finished conversation.
    pub fn conversation(&mut self, examples: usize, converged: bool) {
        self.examples_used += examples as u64;
        self.unconverged += u64::from(!converged);
    }

    /// Adds another counter set's conversation quality.
    pub fn merge_quality(&mut self, other: &Counters) {
        self.examples_used += other.examples_used;
        self.unconverged += other.unconverged;
    }

    pub fn report(&self, report: &mut Report) {
        let c = &self.cache;
        report.set("cache.dag_hits", c.dag_hits as f64);
        report.set("cache.dag_misses", c.dag_misses as f64);
        report.set("cache.example_hits", c.example_hits as f64);
        report.set("cache.example_misses", c.example_misses as f64);
        report.set("cache.intersect_hits", c.intersect_hits as f64);
        report.set("cache.intersect_misses", c.intersect_misses as f64);
        let probes = c.example_hits + c.example_misses;
        if probes > 0 {
            report.set(
                "cache.example_hit_ratio",
                c.example_hits as f64 / probes as f64,
            );
        }
        report.set("arena.interned", self.arena_interned as f64);
        report.set("arena.stored", self.arena_stored as f64);
        report.set("arena.resident_bytes", self.arena_resident_bytes as f64);
        report.set("dstruct.size", self.dstruct_size as f64);
        report.set("quality.examples_used", self.examples_used as f64);
        report.set("quality.unconverged", self.unconverged as f64);
    }
}
