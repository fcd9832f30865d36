//! # mergepath-cache-sim — a set-associative cache simulator
//!
//! Section IV of the Merge Path paper argues that merging is memory-bound
//! and evaluates its segmented algorithm qualitatively against cache
//! behaviour ("we have shown that 3-way associativity suffices to guarantee
//! collision freedom"). The paper's authors had hardware counters; this
//! reproduction has no multi-core hardware at all, so the cache claims are
//! evaluated the other way around: the **exact address traces** of the real
//! kernels (captured through [`mergepath::probe`]) are replayed through a
//! parameterized set-associative LRU cache model.
//!
//! * [`cache`] — the cache model: sets × ways, LRU replacement, an optional
//!   next-line prefetcher, hit/miss/eviction statistics.
//! * [`layout`] — maps logical element indices (`A[i]`, `B[j]`, `Out[k]`,
//!   staging slots) to byte addresses; includes an adversarial layout that
//!   aligns all three streams to the same cache sets, the configuration in
//!   which associativity below 3 thrashes.
//! * [`probes`] — recorded traces to byte addresses, and the round-robin
//!   interleaving of per-core address streams.
//! * [`ring`] — the cyclic staging buffers of Algorithm 2's step 1
//!   ([`RingBuffer`](ring::RingBuffer), [`RingView`](ring::RingView)); the
//!   library's segmented merge stages through windows of its inputs
//!   instead, so they live here.
//! * [`scenarios`] — end-to-end trace builders for the paper's algorithms:
//!   sequential merge, Algorithm 1 with `p` cores sharing a cache
//!   (round-robin interleaving), and Algorithm 2 (SPM) with windowed or
//!   cyclic staging. Each checks its own merge against `merge_into`.
//! * [`coherence`] — private per-core caches under write-invalidate MSI,
//!   quantifying §IV.A's coherence-overhead concern (Algorithm 1's disjoint
//!   writes vs a false-sharing striped assignment).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coherence;
pub mod layout;
pub mod probes;
pub mod ring;
pub mod scenarios;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use coherence::{CoherenceStats, CoherentSystem};
pub use layout::{MemoryLayout, Region};
