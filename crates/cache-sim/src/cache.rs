//! The set-associative LRU cache model.

/// Static geometry of a simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Cache-line size in bytes (power of two).
    pub line_bytes: usize,
    /// Ways per set (`1` = direct-mapped; `lines` = fully associative).
    pub associativity: usize,
}

impl CacheConfig {
    /// A config with the given capacity, 64-byte lines and the given
    /// associativity.
    pub fn new(capacity_bytes: usize, associativity: usize) -> Self {
        CacheConfig {
            capacity_bytes,
            line_bytes: 64,
            associativity,
        }
    }

    /// Number of cache lines.
    pub fn lines(&self) -> usize {
        self.capacity_bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lines() / self.associativity
    }

    /// Capacity in `elem_bytes`-sized elements.
    pub fn capacity_elems(&self, elem_bytes: usize) -> usize {
        self.capacity_bytes / elem_bytes
    }

    fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two() && self.line_bytes > 0,
            "line size must be a power of two, got {}",
            self.line_bytes
        );
        assert!(
            self.capacity_bytes.is_multiple_of(self.line_bytes),
            "capacity {} not a multiple of line size {}",
            self.capacity_bytes,
            self.line_bytes
        );
        assert!(self.associativity > 0, "associativity must be at least 1");
        assert!(
            self.lines().is_multiple_of(self.associativity),
            "line count {} not divisible by associativity {}",
            self.lines(),
            self.associativity
        );
        assert!(
            self.sets().is_power_of_two(),
            "set count must be a power of two, got {}",
            self.sets()
        );
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses that evicted a valid line (≈ conflict + capacity misses once
    /// the cache is warm).
    pub evictions: u64,
    /// Lines installed speculatively by the prefetcher (not counted as
    /// accesses).
    pub prefetch_fills: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; `0` for an untouched cache.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// # Examples
/// ```
/// use mergepath_cache_sim::cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new(4096, 4));
/// assert!(!c.access(0));  // cold miss
/// assert!(c.access(8));   // same 64-byte line: hit
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets[s]` holds up to `associativity` line tags in LRU order
    /// (most-recently-used first).
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
    /// Next-line prefetch degree: on a demand miss of line `L`, lines
    /// `L+1 ..= L+degree` are installed too. `0` disables (default).
    prefetch_degree: usize,
}

impl Cache {
    /// Builds a cache; panics on an invalid geometry.
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        Cache {
            sets: vec![Vec::with_capacity(config.associativity); config.sets()],
            config,
            stats: CacheStats::default(),
            prefetch_degree: 0,
        }
    }

    /// Enables a next-`degree`-line prefetcher — the mechanism behind the
    /// paper's §VI observation that x86's "sophisticated cache management
    /// and prefetching" hides streaming misses (and hence why the authors
    /// benchmarked the basic rather than the segmented algorithm there).
    pub fn with_prefetcher(mut self, degree: usize) -> Self {
        self.prefetch_degree = degree;
        self
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses byte address `addr`; returns `true` on a hit.
    ///
    /// Reads and writes are modelled identically (a write-allocate,
    /// write-back cache's occupancy behaviour).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes as u64;
        let set_idx = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Hit: move to MRU position.
            set.remove(pos);
            set.insert(0, tag);
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            if set.len() == self.config.associativity {
                set.pop(); // evict LRU
                self.stats.evictions += 1;
            }
            set.insert(0, tag);
            for d in 1..=self.prefetch_degree {
                self.install(line + d as u64);
            }
            false
        }
    }

    /// Installs a line without charging an access (prefetch fill).
    fn install(&mut self, line: u64) {
        let set_idx = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let assoc = self.config.associativity;
        let set = &mut self.sets[set_idx];
        if set.contains(&tag) {
            return;
        }
        if set.len() == assoc {
            set.pop();
            self.stats.evictions += 1;
        }
        // Streaming prefetches are installed at MRU: the stream is about
        // to consume them, and under LRU insertion the very next demand
        // miss in the set would evict them before they are ever used.
        set.insert(0, tag);
        self.stats.prefetch_fills += 1;
    }

    /// Convenience: replay a sequence of addresses.
    pub fn run<I: IntoIterator<Item = u64>>(&mut self, addrs: I) -> CacheStats {
        let before = self.stats;
        for a in addrs {
            self.access(a);
        }
        CacheStats {
            hits: self.stats.hits - before.hits,
            misses: self.stats.misses - before.misses,
            evictions: self.stats.evictions - before.evictions,
            prefetch_fills: self.stats.prefetch_fills - before.prefetch_fills,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 64,
            associativity: 2,
        } // 16 lines, 8 sets
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.lines(), 16);
        assert_eq!(c.sets(), 8);
        assert_eq!(c.capacity_elems(4), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_line() {
        Cache::new(CacheConfig {
            capacity_bytes: 100,
            line_bytes: 10,
            associativity: 1,
        });
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn rejects_zero_associativity() {
        Cache::new(CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 64,
            associativity: 0,
        });
    }

    #[test]
    fn spatial_locality_within_a_line() {
        let mut c = Cache::new(small());
        assert!(!c.access(128));
        for off in 1..64 {
            assert!(c.access(128 + off), "offset {off} should hit");
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 63);
    }

    #[test]
    fn lru_eviction_order() {
        // Direct exercise of a single set: with 8 sets and 64-byte lines,
        // addresses 0, 512, 1024, … all map to set 0.
        let mut c = Cache::new(small()); // 2-way
        c.access(0); // line A
        c.access(512); // line B — set full
        c.access(0); // touch A: B becomes LRU
        c.access(1024); // line C evicts B
        assert!(c.access(0), "A must survive");
        assert!(!c.access(512), "B must have been evicted");
        assert_eq!(c.stats().evictions, 2); // C evicted B, then B evicted C? — recount below
    }

    #[test]
    fn direct_mapped_thrash_three_streams() {
        // Three streams striding together, all mapped to the same sets:
        // with 1 way every access conflicts; with 3+ ways all streams fit.
        let cfg1 = CacheConfig {
            capacity_bytes: 4096,
            line_bytes: 64,
            associativity: 1,
        };
        let cfg4 = CacheConfig {
            capacity_bytes: 4096,
            line_bytes: 64,
            associativity: 4,
        };
        let way_bytes = 4096u64; // stride that lands in the same set
        let trace: Vec<u64> = (0..1000u64)
            .flat_map(|i| {
                let off = i * 4; // 4-byte elements, sequential
                [off, off + way_bytes, off + 2 * way_bytes]
            })
            .collect();
        let mut direct = Cache::new(cfg1);
        let s1 = direct.run(trace.iter().copied());
        let mut assoc = Cache::new(cfg4);
        let s4 = assoc.run(trace.iter().copied());
        // Direct-mapped: every access misses (three lines fight for one slot).
        assert!(
            s1.miss_rate() > 0.99,
            "direct-mapped should thrash, miss rate {}",
            s1.miss_rate()
        );
        // 4-way: only compulsory misses (1 per 16 elements per stream).
        assert!(
            s4.miss_rate() < 0.07,
            "4-way should stream cleanly, miss rate {}",
            s4.miss_rate()
        );
    }

    #[test]
    fn fully_associative_holds_capacity() {
        let cfg = CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 64,
            associativity: 16,
        }; // 16 lines, 1 set
        let mut c = Cache::new(cfg);
        let lines = || (0..16u64).map(|i| i * 64);
        assert_eq!(c.run(lines()).misses, 16);
        let again = c.run(lines());
        assert_eq!((again.hits, again.misses), (16, 0));
    }

    #[test]
    fn run_reports_delta_stats() {
        let mut c = Cache::new(small());
        let first = c.run([0u64, 64, 128]);
        assert_eq!(first.misses, 3);
        let second = c.run([0u64, 64, 128]);
        assert_eq!(second.hits, 3);
        assert_eq!(second.misses, 0);
    }

    #[test]
    fn miss_rate_of_empty_stats_is_zero() {
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
