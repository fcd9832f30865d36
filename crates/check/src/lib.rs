//! # mergepath-check — deterministic schedule-exploration checker
//!
//! The paper's central claims are *scheduling* claims: Theorem 9 says the
//! equisized merge-path partition hands every worker a **disjoint** slice of
//! the output (so the merge is lock- and synchronization-free within a
//! round), and Theorem 14 bounds every worker's share at `⌈N/p⌉` elements.
//! The ordinary test suite can only observe the *result* of a schedule the
//! OS happened to pick; this crate makes the schedule itself a test input.
//!
//! It works by installing a [`ShareObserver`] (see
//! `mergepath::executor`) that turns every pool round into a **virtual
//! round**: the shares run inline on the calling thread, one after another,
//! in a seed-controlled permutation chosen by the checker. While they run, a
//! shadow access-set recorder intercepts every output write (the `SendPtr`
//! recording accessors plus the orchestrator-level `note_write_range` sites)
//! and every declared input read range. From `K` such recordings the checker
//! proves, per kernel:
//!
//! 1. **CREW exclusivity** (Thm 9): within every multi-share round the
//!    write-sets of distinct shares are pairwise disjoint, and no share
//!    reads a range another share writes in the same round;
//! 2. **coverage**: across rounds the recorded writes tile the output span
//!    exactly (merges) or at least cover it (sorts, which also write their
//!    scratch buffers);
//! 3. **load balance** (Thm 14): in every multi-share round each share
//!    writes at most `⌈E/s⌉` of the round's `E` elements;
//! 4. **determinism**: the output is byte-identical across all `K` permuted
//!    schedules *and* equal to an independent sequential oracle — which,
//!    because elements carry provenance tags, also pins down stability;
//! 5. **machine cross-validation**: small rounds are replayed on the
//!    `mergepath-pram` CREW machine, which must accept them (its own
//!    exclusive-write detector is the second, independent referee).
//!
//! The checker is deliberately *deterministic*: same seed, same schedules,
//! same verdict — a failing seed is a reproducer, not a flake.

#![warn(missing_docs)]

use core::cmp::Ordering;
use std::cell::RefCell;
use std::rc::Rc;

use mergepath::executor::{self, ShareObserver};
use mergepath::merge::batch::batch_merge_into_by;
use mergepath::merge::inplace::parallel_inplace_merge_by;
use mergepath::merge::kway::parallel_kway_merge_by;
use mergepath::merge::parallel::parallel_merge_into_by;
use mergepath::merge::segmented::{segmented_parallel_merge_into_by, SpmConfig};
use mergepath::sort::cache_aware::cache_aware_parallel_sort_by;
use mergepath::sort::parallel::parallel_merge_sort_by;
use mergepath::telemetry::{NoRecorder, Recorder};
use mergepath_pram::PramMachine;
use mergepath_workloads::prng::Prng;

/// The checker's element type: `(key, provenance)` compared by key only, so
/// byte-identical agreement with the stable oracle also proves stability.
pub type Kv = (i32, u32);

fn by_key(x: &Kv, y: &Kv) -> Ordering {
    x.0.cmp(&y.0)
}

// ---------------------------------------------------------------------------
// Access-set recording
// ---------------------------------------------------------------------------

/// One recorded memory access: `elems` elements spanning `bytes` bytes at
/// `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSpan {
    /// Starting address of the access.
    pub addr: usize,
    /// Length of the access in bytes.
    pub bytes: usize,
    /// Length of the access in elements.
    pub elems: usize,
}

impl AccessSpan {
    /// One-past-the-end address.
    pub fn end(&self) -> usize {
        self.addr + self.bytes
    }

    fn overlaps(&self, other: &AccessSpan) -> bool {
        self.addr < other.end() && other.addr < self.end()
    }
}

/// Accesses performed by one share within one round.
#[derive(Debug, Clone, Default)]
pub struct ShareLog {
    /// Output ranges this share wrote.
    pub writes: Vec<AccessSpan>,
    /// Input ranges this share declared it reads.
    pub reads: Vec<AccessSpan>,
}

/// One fork-join round: the permutation the checker executed and the
/// access log of every share. Orchestrator-level writes (sequential
/// fallbacks, copy-backs between rounds) appear as singleton rounds with
/// `orchestrator == true`.
#[derive(Debug, Clone)]
pub struct RoundLog {
    /// The execution order chosen for this round (a permutation of share
    /// ids).
    pub order: Vec<usize>,
    /// Per-share access logs, indexed by share id.
    pub shares: Vec<ShareLog>,
    /// `true` for a synthetic singleton round recording a write made by the
    /// orchestrating kernel between pool rounds.
    pub orchestrator: bool,
}

/// Everything one virtual run recorded.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// The rounds in execution order.
    pub rounds: Vec<RoundLog>,
}

struct RecorderState {
    prng: Prng,
    rounds: Vec<RoundLog>,
    /// Stack of open rounds (indices into `rounds`); nested pool entry from
    /// inside a virtual share pushes a second level.
    open: Vec<usize>,
    /// Stack of `(round index, share id)` for the currently executing
    /// share(s).
    share_stack: Vec<(usize, usize)>,
}

/// A [`ShareObserver`] that picks a seeded uniform random permutation as
/// the execution order of every round and records each share's access
/// sets. Single-threaded by construction (virtual rounds run inline),
/// hence the `RefCell`.
pub struct ScheduleRecorder {
    state: RefCell<RecorderState>,
}

impl ScheduleRecorder {
    /// Creates a recorder whose round permutations are drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        ScheduleRecorder {
            state: RefCell::new(RecorderState {
                prng: Prng::seed_from_u64(seed),
                rounds: Vec::new(),
                open: Vec::new(),
                share_stack: Vec::new(),
            }),
        }
    }

    /// Extracts the recording accumulated so far, leaving the recorder
    /// empty.
    pub fn take(&self) -> Recording {
        let mut st = self.state.borrow_mut();
        Recording {
            rounds: std::mem::take(&mut st.rounds),
        }
    }
}

impl ShareObserver for ScheduleRecorder {
    fn round_begin(&self, shares: usize) -> Vec<usize> {
        let mut st = self.state.borrow_mut();
        let mut order: Vec<usize> = (0..shares).collect();
        st.prng.shuffle(&mut order);
        let idx = st.rounds.len();
        st.rounds.push(RoundLog {
            order: order.clone(),
            shares: vec![ShareLog::default(); shares],
            orchestrator: false,
        });
        st.open.push(idx);
        order
    }

    fn round_end(&self) {
        self.state.borrow_mut().open.pop();
    }

    fn share_begin(&self, share: usize) {
        let mut st = self.state.borrow_mut();
        let round = *st.open.last().expect("share outside any round");
        st.share_stack.push((round, share));
    }

    fn share_end(&self, _share: usize) {
        self.state.borrow_mut().share_stack.pop();
    }

    fn write_range(&self, addr: usize, bytes: usize, elems: usize) {
        let mut st = self.state.borrow_mut();
        let span = AccessSpan { addr, bytes, elems };
        match st.share_stack.last().copied() {
            Some((round, share)) => st.rounds[round].shares[share].writes.push(span),
            None => st.rounds.push(RoundLog {
                order: vec![0],
                shares: vec![ShareLog {
                    writes: vec![span],
                    reads: Vec::new(),
                }],
                orchestrator: true,
            }),
        }
    }

    fn read_range(&self, addr: usize, bytes: usize, elems: usize) {
        let mut st = self.state.borrow_mut();
        let span = AccessSpan { addr, bytes, elems };
        if let Some((round, share)) = st.share_stack.last().copied() {
            st.rounds[round].shares[share].reads.push(span);
        }
    }
}

/// Runs `f` under a fresh [`ScheduleRecorder`] seeded with `seed`: every
/// pool round inside `f` executes virtually (inline, single-threaded, in a
/// seeded permutation order) and is recorded. Returns `f`'s value and the
/// recording. The observer is uninstalled even if `f` panics.
pub fn record<T>(seed: u64, f: impl FnOnce() -> T) -> (T, Recording) {
    let rec = Rc::new(ScheduleRecorder::new(seed));
    let guard = executor::install_observer(rec.clone());
    let value = f();
    drop(guard);
    let recording = rec.take();
    (value, recording)
}

// ---------------------------------------------------------------------------
// Kernels under check
// ---------------------------------------------------------------------------

/// Every parallel kernel the checker can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Algorithm 1 parallel merge.
    Parallel,
    /// Algorithm 2 segmented (SPM) merge.
    Segmented,
    /// Batched pairwise merges under one worker budget.
    Batch,
    /// Rotation-based parallel in-place merge.
    Inplace,
    /// Rank-partitioned parallel k-way merge.
    Kway,
    /// §III parallel merge sort.
    SortParallel,
    /// §IV.C cache-aware sort.
    SortCacheAware,
}

impl Kernel {
    /// All seven kernels, in the order the CLI and xtask report them.
    pub const ALL: [Kernel; 7] = [
        Kernel::Parallel,
        Kernel::Segmented,
        Kernel::Batch,
        Kernel::Inplace,
        Kernel::Kway,
        Kernel::SortParallel,
        Kernel::SortCacheAware,
    ];

    /// Parses a kernel name (the same names `mp trace --kernel` uses).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "parallel" => Kernel::Parallel,
            "segmented" => Kernel::Segmented,
            "batch" => Kernel::Batch,
            "inplace" => Kernel::Inplace,
            "kway" => Kernel::Kway,
            "sort-parallel" => Kernel::SortParallel,
            "sort-cache-aware" => Kernel::SortCacheAware,
            _ => return None,
        })
    }

    /// The kernel's canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Parallel => "parallel",
            Kernel::Segmented => "segmented",
            Kernel::Batch => "batch",
            Kernel::Inplace => "inplace",
            Kernel::Kway => "kway",
            Kernel::SortParallel => "sort-parallel",
            Kernel::SortCacheAware => "sort-cache-aware",
        }
    }

    fn policy(&self) -> Policy {
        match self {
            // Merges into a dedicated output: every write must land inside
            // the output span and the union must tile it exactly.
            Kernel::Parallel | Kernel::Segmented | Kernel::Batch | Kernel::Kway => Policy {
                exact: true,
                cover: true,
                thm14: true,
            },
            // Sorts ping-pong through a scratch buffer, so out-of-span
            // writes are legitimate; the input span must still be covered.
            Kernel::SortParallel | Kernel::SortCacheAware => Policy {
                exact: false,
                cover: true,
                thm14: true,
            },
            // The in-place merge's split rounds carry finished or
            // cutoff-sized sub-problems across levels (so per-share counts
            // can exceed ⌈E/s⌉) and elements already in place are never
            // rewritten (so coverage has legitimate gaps). Disjointness is
            // the whole contract.
            Kernel::Inplace => Policy {
                exact: false,
                cover: false,
                thm14: false,
            },
        }
    }
}

/// What the checker demands of a kernel's recorded access sets.
#[derive(Debug, Clone, Copy)]
struct Policy {
    /// Every write must land within the declared output span.
    exact: bool,
    /// The union of in-span writes must cover the output span exactly.
    cover: bool,
    /// Multi-share rounds must satisfy the Thm 14 `⌈E/s⌉` bound.
    thm14: bool,
}

// ---------------------------------------------------------------------------
// Configuration, report, errors
// ---------------------------------------------------------------------------

/// Checker configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Logical worker count `p` handed to the kernels.
    pub threads: usize,
    /// Number of distinct seeded schedules to explore (`K`).
    pub schedules: usize,
    /// Base seed; schedule `k` derives its permutation stream from
    /// `seed ⊕ mix(k)`.
    pub seed: u64,
    /// Replay rounds of at most this many elements on the PRAM CREW
    /// machine (0 disables the cross-validation).
    pub pram_limit: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            threads: 4,
            schedules: 8,
            seed: 0x5EED_CAFE,
            pram_limit: 4096,
        }
    }
}

/// Aggregated evidence from one kernel's check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckReport {
    /// Kernel name.
    pub kernel: &'static str,
    /// Total output elements `N`.
    pub n: usize,
    /// Schedules explored.
    pub schedules: usize,
    /// Rounds observed across all schedules (including orchestrator
    /// singletons).
    pub rounds: usize,
    /// Rounds with at least two shares — the ones CREW exclusivity and
    /// Thm 14 actually constrain.
    pub multi_rounds: usize,
    /// Largest share count of any round.
    pub max_shares: usize,
    /// Write spans recorded.
    pub writes: usize,
    /// Rounds replayed and accepted by the PRAM CREW machine.
    pub pram_rounds: usize,
}

impl core::fmt::Display for CheckReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: ok (n={}, schedules={}, rounds={}, multi_share_rounds={}, \
             max_shares={}, writes={}, pram_rounds={})",
            self.kernel,
            self.n,
            self.schedules,
            self.rounds,
            self.multi_rounds,
            self.max_shares,
            self.writes,
            self.pram_rounds
        )
    }
}

/// Everything the checker can prove wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// Two distinct shares wrote overlapping ranges in one round — the
    /// exclusive-write (Thm 9) violation.
    WriteOverlap {
        /// Kernel under check.
        kernel: &'static str,
        /// Schedule index that exposed it.
        schedule: usize,
        /// Round index within the schedule.
        round: usize,
        /// First share involved.
        share_a: usize,
        /// Second share involved.
        share_b: usize,
        /// First overlapping address.
        addr: usize,
    },
    /// A share wrote outside the declared output span under the exact
    /// policy.
    WriteOutsideSpan {
        /// Kernel under check.
        kernel: &'static str,
        /// Schedule index.
        schedule: usize,
        /// Round index.
        round: usize,
        /// Offending share.
        share: usize,
        /// Offending address.
        addr: usize,
    },
    /// The recorded writes left a hole in the output span.
    CoverageGap {
        /// Kernel under check.
        kernel: &'static str,
        /// Schedule index.
        schedule: usize,
        /// First uncovered address.
        missing_addr: usize,
    },
    /// A share read a range another share wrote in the same round.
    ReadWriteRace {
        /// Kernel under check.
        kernel: &'static str,
        /// Schedule index.
        schedule: usize,
        /// Round index.
        round: usize,
        /// Reading share.
        reader: usize,
        /// Writing share.
        writer: usize,
        /// First racing address.
        addr: usize,
    },
    /// A share exceeded the Thm 14 bound `⌈E/s⌉` in a multi-share round.
    ShareOverload {
        /// Kernel under check.
        kernel: &'static str,
        /// Schedule index.
        schedule: usize,
        /// Round index.
        round: usize,
        /// Offending share.
        share: usize,
        /// Elements the share wrote.
        elems: usize,
        /// The `⌈E/s⌉` bound it had to respect.
        cap: usize,
    },
    /// The kernel's output differed from the sequential oracle (or, by
    /// transitivity, from another schedule's output).
    OutputMismatch {
        /// Kernel under check.
        kernel: &'static str,
        /// Schedule index.
        schedule: usize,
        /// First differing element index.
        index: usize,
    },
    /// The PRAM CREW machine rejected a replayed round.
    PramConflict {
        /// Kernel under check.
        kernel: &'static str,
        /// Schedule index.
        schedule: usize,
        /// Round index.
        round: usize,
        /// The machine's verdict.
        detail: String,
    },
    /// The run never produced a multi-share round even though the input
    /// was large enough — the check would be vacuous.
    NoParallelRounds {
        /// Kernel under check.
        kernel: &'static str,
    },
}

impl core::fmt::Display for CheckError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckError::WriteOverlap {
                kernel,
                schedule,
                round,
                share_a,
                share_b,
                addr,
            } => write!(
                f,
                "{kernel}: schedule {schedule} round {round}: shares {share_a} and \
                 {share_b} both wrote address {addr:#x} (CREW exclusivity violated)"
            ),
            CheckError::WriteOutsideSpan {
                kernel,
                schedule,
                round,
                share,
                addr,
            } => write!(
                f,
                "{kernel}: schedule {schedule} round {round}: share {share} wrote \
                 {addr:#x}, outside the output span"
            ),
            CheckError::CoverageGap {
                kernel,
                schedule,
                missing_addr,
            } => write!(
                f,
                "{kernel}: schedule {schedule}: output address {missing_addr:#x} was \
                 never written"
            ),
            CheckError::ReadWriteRace {
                kernel,
                schedule,
                round,
                reader,
                writer,
                addr,
            } => write!(
                f,
                "{kernel}: schedule {schedule} round {round}: share {reader} reads \
                 {addr:#x} which share {writer} writes in the same round"
            ),
            CheckError::ShareOverload {
                kernel,
                schedule,
                round,
                share,
                elems,
                cap,
            } => write!(
                f,
                "{kernel}: schedule {schedule} round {round}: share {share} wrote \
                 {elems} elements, above the Thm 14 bound ⌈E/s⌉ = {cap}"
            ),
            CheckError::OutputMismatch {
                kernel,
                schedule,
                index,
            } => write!(
                f,
                "{kernel}: schedule {schedule}: output differs from the sequential \
                 oracle at element {index}"
            ),
            CheckError::PramConflict {
                kernel,
                schedule,
                round,
                detail,
            } => write!(
                f,
                "{kernel}: schedule {schedule} round {round}: PRAM CREW machine \
                 rejected the replay: {detail}"
            ),
            CheckError::NoParallelRounds { kernel } => write!(
                f,
                "{kernel}: no multi-share round observed — the schedule check would \
                 be vacuous"
            ),
        }
    }
}

impl std::error::Error for CheckError {}

// ---------------------------------------------------------------------------
// Input synthesis, oracles and the kernel table
// ---------------------------------------------------------------------------

/// Builds a duplicate-heavy pair of sorted, provenance-tagged inputs of
/// combined length `n` (`a` tags count from 0, `b` tags from 1\_000\_000).
pub fn default_input(n: usize, seed: u64) -> (Vec<Kv>, Vec<Kv>) {
    let mut rng = Prng::seed_from_u64(seed);
    let na = n / 2;
    let key_space = (n as u64 / 3).max(4);
    let mut generate = |len: usize, tag0: u32| -> Vec<Kv> {
        let mut keys: Vec<i32> = (0..len).map(|_| rng.below(key_space) as i32).collect();
        keys.sort_unstable();
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| (k, tag0 + i as u32))
            .collect()
    };
    (generate(na, 0), generate(n - na, 1_000_000))
}

/// Builds a fine-interleaved pair of sorted primitive `u32` keys of
/// combined length `n` — the input [`check_kernel_keys`] uses to drive the
/// natural-order dispatch path under schedule exploration. Keys are drawn
/// from a wide space so duplicate runs are rare and the adaptive probe's
/// branch-lean arm fires; with bare keys stability is vacuous (equal keys
/// are bit-identical), so the [`Kv`] checks remain the stability referee.
pub fn default_key_input(n: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = Prng::seed_from_u64(seed ^ 0x51D0_5EED);
    let na = n / 2;
    let mut generate = |len: usize| -> Vec<u32> {
        let mut keys: Vec<u32> = (0..len)
            .map(|_| rng.below(u32::MAX as u64) as u32)
            .collect();
        keys.sort_unstable();
        keys
    };
    (generate(na), generate(n - na))
}

/// Independent two-pointer stable merge — the oracle deliberately shares no
/// code with the kernels under check.
fn oracle_merge<T, F>(a: &[T], b: &[T], cmp: &F) -> Vec<T>
where
    T: Clone,
    F: Fn(&T, &T) -> Ordering,
{
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(&b[j], &a[i]) == Ordering::Less {
            out.push(b[j].clone());
            j += 1;
        } else {
            out.push(a[i].clone());
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The batch merge's two pairs: each input is cut (deliberately raggedly)
/// at `(a/2, b/3)`, and `(a₀,b₀)` then `(a₁,b₁)` merge into consecutive
/// output regions.
fn batch_split<T>(a: &[T], b: &[T]) -> (usize, usize) {
    (a.len() / 2, b.len() / 3)
}

/// The k-way merge's four runs: `a`'s halves, then `b`'s (run order
/// matches ascending provenance, so a left fold of the stable two-way
/// oracle reproduces the k-way tie-break).
fn kway_split<T>(a: &[T], b: &[T]) -> (usize, usize) {
    (a.len() / 2, b.len() / 2)
}

/// The sorts' input: the concatenation `a ++ b`, shuffled with a fixed
/// seed, so every run of a sort on the same pair sorts the same array.
fn sort_input<T: Clone>(a: &[T], b: &[T]) -> Vec<T> {
    let mut v = [a, b].concat();
    Prng::seed_from_u64(0x5075_FF1E).shuffle(&mut v);
    v
}

/// The one table of how each parallel kernel is called on a sorted pair:
/// the checker, `mp trace`, `mp bench` and the workspace's tests all run
/// kernels through it.
impl Kernel {
    /// Runs the kernel once on the sorted pair `a`, `b` with `threads`
    /// workers, reporting into `rec`, and returns the buffer it wrote:
    /// [`Kernel::buffer`], then [`Kernel::run_on`].
    ///
    /// # Panics
    /// Panics if `threads == 0`, or if `cmp` panics.
    pub fn run_by<T, F, R>(
        self,
        a: &[T],
        b: &[T],
        threads: usize,
        window: usize,
        cmp: &F,
        rec: &R,
    ) -> Vec<T>
    where
        T: Clone + Default + Send + Sync,
        F: Fn(&T, &T) -> Ordering + Sync,
        R: Recorder,
    {
        let mut buf = self.buffer(a, b);
        self.run_on(a, b, &mut buf, threads, window, cmp, rec);
        buf
    }

    /// The buffer the kernel writes when run on the sorted pair `a`, `b`:
    /// a fresh output for the merges, `a ++ b` for the in-place merge and a
    /// fixed-seed shuffle of `a ++ b` for the sorts.
    pub fn buffer<T: Clone + Default>(self, a: &[T], b: &[T]) -> Vec<T> {
        match self {
            Kernel::Inplace => [a, b].concat(),
            Kernel::SortParallel | Kernel::SortCacheAware => sort_input(a, b),
            _ => vec![T::default(); a.len() + b.len()],
        }
    }

    /// Runs the kernel once on the sorted pair `a`, `b` with `threads`
    /// workers into `buf`, reporting into `rec`. `buf` must hold what
    /// [`Kernel::buffer`] returns for the same pair: the in-place merge
    /// and the sorts rearrange it, and the merges overwrite it.
    ///
    /// The merges merge `a` and `b` (the batch merge as two pairs, cut at
    /// `(a/2, b/3)`; the k-way merge as four runs, each input's halves),
    /// and the in-place merge merges the two runs of `buf` in place; the
    /// sorts sort `buf`. `window` is the cache size, in elements, of the
    /// two windowed kernels: the segmented merge's and the cache-aware
    /// sort's. The address span the kernel's pool rounds record is `buf`'s.
    ///
    /// # Panics
    /// Panics if `threads == 0`, if `buf.len() != a.len() + b.len()`, or
    /// if `cmp` panics.
    #[allow(clippy::too_many_arguments)]
    pub fn run_on<T, F, R>(
        self,
        a: &[T],
        b: &[T],
        buf: &mut [T],
        threads: usize,
        window: usize,
        cmp: &F,
        rec: &R,
    ) where
        T: Clone + Default + Send + Sync,
        F: Fn(&T, &T) -> Ordering + Sync,
        R: Recorder,
    {
        assert_eq!(buf.len(), a.len() + b.len(), "buffer length mismatch");
        match self {
            Kernel::Parallel => parallel_merge_into_by(a, b, buf, threads, cmp, rec),
            Kernel::Segmented => {
                let spm = SpmConfig::new(window, threads);
                segmented_parallel_merge_into_by(a, b, buf, &spm, cmp, rec);
            }
            Kernel::Batch => {
                let (ha, hb) = batch_split(a, b);
                let pairs = [(&a[..ha], &b[..hb]), (&a[ha..], &b[hb..])];
                batch_merge_into_by(&pairs, buf, threads, cmp, rec);
            }
            Kernel::Inplace => parallel_inplace_merge_by(buf, a.len(), threads, cmp, rec),
            Kernel::Kway => {
                let (ha, hb) = kway_split(a, b);
                let runs = [&a[..ha], &a[ha..], &b[..hb], &b[hb..]];
                parallel_kway_merge_by(&runs, buf, threads, cmp, rec);
            }
            Kernel::SortParallel => parallel_merge_sort_by(buf, threads, cmp, rec),
            Kernel::SortCacheAware => cache_aware_parallel_sort_by(buf, threads, window, cmp, rec),
        }
    }

    /// What [`Kernel::run_by`] must return for `a`, `b` and `cmp`, computed
    /// by an independent sequential oracle: a two-pointer stable merge for
    /// the merges, std's stable sort for the sorts.
    pub fn expected_by<T, F>(self, a: &[T], b: &[T], cmp: &F) -> Vec<T>
    where
        T: Clone + Default + Send + Sync,
        F: Fn(&T, &T) -> Ordering,
    {
        match self {
            Kernel::Parallel | Kernel::Segmented | Kernel::Inplace => oracle_merge(a, b, cmp),
            Kernel::Batch => {
                let (ha, hb) = batch_split(a, b);
                let mut out = oracle_merge(&a[..ha], &b[..hb], cmp);
                out.extend(oracle_merge(&a[ha..], &b[hb..], cmp));
                out
            }
            Kernel::Kway => {
                let (ha, hb) = kway_split(a, b);
                let mut acc: Vec<T> = Vec::new();
                for run in [&a[..ha], &a[ha..], &b[..hb], &b[hb..]] {
                    acc = oracle_merge(&acc, run, cmp);
                }
                acc
            }
            Kernel::SortParallel | Kernel::SortCacheAware => {
                let mut v = sort_input(a, b);
                v.sort_by(|x, y| cmp(x, y)); // std's stable sort, same key order
                v
            }
        }
    }
}

/// The cache size, in elements, the checker passes both windowed kernels:
/// segments of 30 outputs and cache-aware blocks of 45 force many segment
/// rounds and phase-1 blocks even on checker-sized inputs.
const WINDOW: usize = 91;

fn span_of<T>(v: &[T]) -> AccessSpan {
    AccessSpan {
        addr: v.as_ptr() as usize,
        bytes: std::mem::size_of_val(v),
        elems: v.len(),
    }
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy)]
struct RoundStats {
    rounds: usize,
    multi_rounds: usize,
    max_shares: usize,
    writes: usize,
}

/// Checks one recording against the kernel's policy: per-round CREW
/// disjointness, read-vs-foreign-write exclusion, span containment,
/// coverage, and the Thm 14 bound.
fn verify_recording(
    kernel: Kernel,
    rec: &Recording,
    span: AccessSpan,
    schedule: usize,
) -> Result<RoundStats, CheckError> {
    let name = kernel.name();
    let pol = kernel.policy();
    let mut covered: Vec<(usize, usize)> = Vec::new();
    let mut stats = RoundStats::default();
    for (ri, round) in rec.rounds.iter().enumerate() {
        stats.rounds += 1;
        if round.shares.len() > 1 {
            stats.multi_rounds += 1;
        }
        stats.max_shares = stats.max_shares.max(round.shares.len());

        let mut writes: Vec<(usize, AccessSpan)> = Vec::new();
        for (s, log) in round.shares.iter().enumerate() {
            for w in &log.writes {
                stats.writes += 1;
                if pol.exact && !(w.addr >= span.addr && w.end() <= span.end()) {
                    return Err(CheckError::WriteOutsideSpan {
                        kernel: name,
                        schedule,
                        round: ri,
                        share: s,
                        addr: w.addr,
                    });
                }
                let (lo, hi) = (w.addr.max(span.addr), w.end().min(span.end()));
                if lo < hi {
                    covered.push((lo, hi));
                }
                if w.bytes > 0 {
                    writes.push((s, *w));
                }
            }
        }

        // CREW exclusivity: sweep the round's writes in address order,
        // merging same-share overlaps and flagging cross-share ones.
        writes.sort_by_key(|&(_, w)| (w.addr, w.end()));
        let mut active: Option<(usize, usize)> = None; // (end, share)
        for &(s, w) in &writes {
            match active {
                Some((end, owner)) if w.addr < end => {
                    if owner != s {
                        return Err(CheckError::WriteOverlap {
                            kernel: name,
                            schedule,
                            round: ri,
                            share_a: owner,
                            share_b: s,
                            addr: w.addr,
                        });
                    }
                    active = Some((end.max(w.end()), owner));
                }
                _ => active = Some((w.end(), s)),
            }
        }

        // No share may read what another share writes this round.
        for (s, log) in round.shares.iter().enumerate() {
            for r in &log.reads {
                if r.bytes == 0 {
                    continue;
                }
                for &(ws, w) in &writes {
                    if ws != s && r.overlaps(&w) {
                        return Err(CheckError::ReadWriteRace {
                            kernel: name,
                            schedule,
                            round: ri,
                            reader: s,
                            writer: ws,
                            addr: r.addr.max(w.addr),
                        });
                    }
                }
            }
        }

        // Thm 14: in a round of s ≥ 2 shares writing E elements total, no
        // share writes more than ⌈E/s⌉.
        if pol.thm14 && round.shares.len() >= 2 && !round.orchestrator {
            let total: usize = round
                .shares
                .iter()
                .flat_map(|l| l.writes.iter().map(|w| w.elems))
                .sum();
            let cap = total.div_ceil(round.shares.len());
            for (s, log) in round.shares.iter().enumerate() {
                let mine: usize = log.writes.iter().map(|w| w.elems).sum();
                if mine > cap {
                    return Err(CheckError::ShareOverload {
                        kernel: name,
                        schedule,
                        round: ri,
                        share: s,
                        elems: mine,
                        cap,
                    });
                }
            }
        }
    }

    if pol.cover {
        covered.sort_unstable();
        let mut pos = span.addr;
        for &(lo, hi) in &covered {
            if lo > pos {
                return Err(CheckError::CoverageGap {
                    kernel: name,
                    schedule,
                    missing_addr: pos,
                });
            }
            pos = pos.max(hi);
        }
        if pos < span.end() {
            return Err(CheckError::CoverageGap {
                kernel: name,
                schedule,
                missing_addr: pos,
            });
        }
    }
    Ok(stats)
}

/// Replays the recording's multi-share in-span rounds on the
/// `mergepath-pram` CREW machine, whose independent exclusive-write
/// detector must accept every one of them. Returns how many rounds it
/// validated.
fn pram_replay<T>(
    kernel: Kernel,
    rec: &Recording,
    span: AccessSpan,
    cfg: &CheckConfig,
    schedule: usize,
) -> Result<usize, CheckError> {
    if cfg.pram_limit == 0 || span.elems == 0 {
        return Ok(0);
    }
    let esize = std::mem::size_of::<T>();
    let mut validated = 0;
    for (ri, round) in rec.rounds.iter().enumerate() {
        if round.orchestrator || round.shares.len() < 2 {
            continue;
        }
        // Eligibility: every non-empty write lies within the output span on
        // element boundaries (sorts' scratch-buffer rounds are skipped).
        let mut per_share: Vec<Vec<(usize, usize)>> = Vec::with_capacity(round.shares.len());
        let mut total = 0usize;
        let mut eligible = true;
        'shares: for log in &round.shares {
            let mut spans = Vec::new();
            for w in &log.writes {
                if w.bytes == 0 {
                    continue;
                }
                if w.addr < span.addr
                    || w.end() > span.end()
                    || !(w.addr - span.addr).is_multiple_of(esize)
                {
                    eligible = false;
                    break 'shares;
                }
                spans.push(((w.addr - span.addr) / esize, w.elems));
                total += w.elems;
            }
            per_share.push(spans);
        }
        if !eligible || total == 0 || total > cfg.pram_limit {
            continue;
        }
        let mut machine = PramMachine::new();
        let base = machine.alloc(span.elems);
        let result = machine.step(round.shares.len(), |pid, ctx| {
            for &(lo, count) in &per_share[pid] {
                for e in lo..lo + count {
                    ctx.write(base + e, pid as u64);
                }
            }
        });
        match result {
            Ok(_) => validated += 1,
            Err(e) => {
                return Err(CheckError::PramConflict {
                    kernel: kernel.name(),
                    schedule,
                    round: ri,
                    detail: format!("{e:?}"),
                })
            }
        }
    }
    Ok(validated)
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Checks `kernel` on the given sorted inputs under a caller-supplied
/// element type and comparator: runs it under `cfg.schedules` seed-permuted
/// virtual schedules, verifies CREW exclusivity, coverage, Thm 14 and
/// byte-identical agreement with the sequential oracle on each, and
/// cross-validates small rounds on the PRAM machine.
///
/// Pass [`mergepath::merge::sequential::natural_cmp`] with `u32` keys to
/// put branch-lean's vector body (which the dispatch recognizes by
/// comparator type identity) under the recording layer.
pub fn check_kernel_on_by<T, F>(
    kernel: Kernel,
    a: &[T],
    b: &[T],
    cfg: &CheckConfig,
    cmp: &F,
) -> Result<CheckReport, CheckError>
where
    T: Copy + Default + PartialEq + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    assert!(cfg.threads > 0, "thread count must be at least 1");
    assert!(cfg.schedules > 0, "need at least one schedule");
    debug_assert!(
        a.windows(2).all(|w| cmp(&w[0], &w[1]) != Ordering::Greater),
        "input a not sorted"
    );
    debug_assert!(
        b.windows(2).all(|w| cmp(&w[0], &w[1]) != Ordering::Greater),
        "input b not sorted"
    );

    let oracle = kernel.expected_by(a, b, cmp);
    let mut report = CheckReport {
        kernel: kernel.name(),
        n: a.len() + b.len(),
        schedules: cfg.schedules,
        ..CheckReport::default()
    };
    for schedule in 0..cfg.schedules {
        let seed = cfg
            .seed
            .wrapping_add((schedule as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (out, recording) = record(seed, || {
            kernel.run_by(a, b, cfg.threads, WINDOW, cmp, &NoRecorder)
        });
        // Returning a `Vec` moves no element, so `out` still spans the
        // buffer the recorded rounds wrote.
        let span = span_of(&out);
        if let Some(index) = (0..oracle.len().max(out.len())).find(|&i| out.get(i) != oracle.get(i))
        {
            return Err(CheckError::OutputMismatch {
                kernel: kernel.name(),
                schedule,
                index,
            });
        }
        let stats = verify_recording(kernel, &recording, span, schedule)?;
        report.rounds += stats.rounds;
        report.multi_rounds += stats.multi_rounds;
        report.max_shares = report.max_shares.max(stats.max_shares);
        report.writes += stats.writes;
        report.pram_rounds += pram_replay::<T>(kernel, &recording, span, cfg, schedule)?;
    }
    // Anti-vacuity: with p ≥ 2 workers and an input comfortably above every
    // kernel's sequential cutoff, at least one round must truly fan out.
    // (The in-place merge is a legitimate no-op when either run is empty.)
    let parallel_work = match kernel {
        Kernel::Inplace if a.is_empty() || b.is_empty() => 0,
        _ => report.n,
    };
    if cfg.threads >= 2 && parallel_work >= 64 * cfg.threads && report.multi_rounds == 0 {
        return Err(CheckError::NoParallelRounds {
            kernel: kernel.name(),
        });
    }
    Ok(report)
}

/// [`check_kernel_on_by`] specialized to the checker's canonical
/// `(key, tag)` element type and key-only comparator — the configuration
/// every stability assertion rides on.
pub fn check_kernel_on(
    kernel: Kernel,
    a: &[Kv],
    b: &[Kv],
    cfg: &CheckConfig,
) -> Result<CheckReport, CheckError> {
    check_kernel_on_by(kernel, a, b, cfg, &by_key)
}

/// [`check_kernel_on`] with a synthesized duplicate-heavy input of combined
/// length `n`.
pub fn check_kernel(
    kernel: Kernel,
    n: usize,
    cfg: &CheckConfig,
) -> Result<CheckReport, CheckError> {
    let (a, b) = default_input(n, cfg.seed);
    check_kernel_on(kernel, &a, &b, cfg)
}

/// [`check_kernel_on_by`] with synthesized wide-key-space primitive `u32`
/// inputs of combined length `n` and the canonical
/// [`natural_cmp`](mergepath::merge::sequential::natural_cmp) comparator —
/// the entry point that puts the natural-order dispatch path (bare keys,
/// no observable stability) under schedule exploration.
pub fn check_kernel_keys(
    kernel: Kernel,
    n: usize,
    cfg: &CheckConfig,
) -> Result<CheckReport, CheckError> {
    let (a, b) = default_key_input(n, cfg.seed);
    check_kernel_on_by(
        kernel,
        &a,
        &b,
        cfg,
        &mergepath::merge::sequential::natural_cmp,
    )
}

/// Runs [`check_kernel`] over all seven kernels, failing on the first
/// violation.
pub fn check_all(n: usize, cfg: &CheckConfig) -> Result<Vec<CheckReport>, CheckError> {
    Kernel::ALL
        .iter()
        .map(|&kernel| check_kernel(kernel, n, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(shares: Vec<ShareLog>) -> RoundLog {
        RoundLog {
            order: (0..shares.len()).collect(),
            shares,
            orchestrator: false,
        }
    }

    fn writes(spans: &[(usize, usize, usize)]) -> ShareLog {
        ShareLog {
            writes: spans
                .iter()
                .map(|&(addr, bytes, elems)| AccessSpan { addr, bytes, elems })
                .collect(),
            reads: Vec::new(),
        }
    }

    const SPAN: AccessSpan = AccessSpan {
        addr: 1000,
        bytes: 64,
        elems: 8,
    };

    #[test]
    fn verifier_accepts_a_disjoint_tiling() {
        let rec = Recording {
            rounds: vec![round(vec![
                writes(&[(1000, 32, 4)]),
                writes(&[(1032, 32, 4)]),
            ])],
        };
        let stats = verify_recording(Kernel::Parallel, &rec, SPAN, 0).unwrap();
        assert_eq!(stats.multi_rounds, 1);
        assert_eq!(stats.writes, 2);
    }

    #[test]
    fn verifier_flags_cross_share_overlap() {
        let rec = Recording {
            rounds: vec![round(vec![
                writes(&[(1000, 40, 5)]),
                writes(&[(1032, 32, 4)]),
            ])],
        };
        let err = verify_recording(Kernel::Parallel, &rec, SPAN, 3).unwrap_err();
        assert!(
            matches!(
                err,
                CheckError::WriteOverlap {
                    schedule: 3,
                    addr: 1032,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn verifier_allows_same_share_overlap_but_not_hidden_cross_share() {
        // Share 0 writes twice over the same region (fine); share 1 then
        // collides with the *merged* extent, which a naive adjacent-pair
        // check would miss.
        let rec = Recording {
            rounds: vec![round(vec![
                writes(&[(1000, 48, 6), (1008, 8, 1)]),
                writes(&[(1040, 24, 3)]),
            ])],
        };
        let err = verify_recording(Kernel::Parallel, &rec, SPAN, 0).unwrap_err();
        assert!(matches!(err, CheckError::WriteOverlap { .. }), "{err}");
    }

    #[test]
    fn verifier_flags_coverage_gap_and_out_of_span() {
        let gap = Recording {
            rounds: vec![round(vec![
                writes(&[(1000, 24, 3)]),
                writes(&[(1032, 32, 4)]), // bytes 1024..1032 never written
            ])],
        };
        let err = verify_recording(Kernel::Parallel, &gap, SPAN, 0).unwrap_err();
        assert!(
            matches!(
                err,
                CheckError::CoverageGap {
                    missing_addr: 1024,
                    ..
                }
            ),
            "{err}"
        );

        let outside = Recording {
            rounds: vec![round(vec![writes(&[(992, 72, 9)])])],
        };
        let err = verify_recording(Kernel::Parallel, &outside, SPAN, 0).unwrap_err();
        assert!(matches!(err, CheckError::WriteOutsideSpan { .. }), "{err}");
        // The sorts' policy tolerates the same out-of-span write (scratch).
        verify_recording(Kernel::SortParallel, &outside, SPAN, 0).unwrap();
    }

    #[test]
    fn verifier_flags_thm14_overload() {
        // 8 elements over 2 shares: cap is 4, share 0 wrote 6.
        let rec = Recording {
            rounds: vec![round(vec![
                writes(&[(1000, 48, 6)]),
                writes(&[(1048, 16, 2)]),
            ])],
        };
        let err = verify_recording(Kernel::Parallel, &rec, SPAN, 0).unwrap_err();
        assert!(
            matches!(
                err,
                CheckError::ShareOverload {
                    share: 0,
                    elems: 6,
                    cap: 4,
                    ..
                }
            ),
            "{err}"
        );
        // The in-place merge's policy waives the bound (carried
        // sub-problems) — and its coverage requirement.
        verify_recording(Kernel::Inplace, &rec, SPAN, 0).unwrap();
    }

    #[test]
    fn verifier_flags_read_of_foreign_write() {
        let mut reader = writes(&[(1000, 32, 4)]);
        reader.reads.push(AccessSpan {
            addr: 1040,
            bytes: 8,
            elems: 1,
        });
        let rec = Recording {
            rounds: vec![round(vec![reader, writes(&[(1032, 32, 4)])])],
        };
        let err = verify_recording(Kernel::Parallel, &rec, SPAN, 0).unwrap_err();
        assert!(
            matches!(
                err,
                CheckError::ReadWriteRace {
                    reader: 0,
                    writer: 1,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn pram_machine_rejects_an_overlapping_round() {
        let cfg = CheckConfig::default();
        let rec = Recording {
            rounds: vec![round(vec![
                writes(&[(1000, 40, 5)]),
                writes(&[(1032, 32, 4)]),
            ])],
        };
        let err = pram_replay::<Kv>(Kernel::Parallel, &rec, SPAN, &cfg, 0).unwrap_err();
        assert!(
            matches!(err, CheckError::PramConflict { ref detail, .. }
                if detail.contains("ExclusiveWriteConflict")),
            "{err}"
        );
        // And accepts the disjoint tiling.
        let ok = Recording {
            rounds: vec![round(vec![
                writes(&[(1000, 32, 4)]),
                writes(&[(1032, 32, 4)]),
            ])],
        };
        assert_eq!(
            pram_replay::<Kv>(Kernel::Parallel, &ok, SPAN, &cfg, 0).unwrap(),
            1
        );
    }

    #[test]
    fn same_seed_same_schedule_different_seed_usually_differs() {
        let (a, b) = default_input(400, 7);
        let cfg = CheckConfig::default();
        let run = |seed: u64| {
            let run = || Kernel::Parallel.run_by(&a, &b, cfg.threads, WINDOW, &by_key, &NoRecorder);
            let (_, rec) = record(seed, run);
            rec.rounds
                .iter()
                .map(|r| r.order.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11), "same seed must reproduce the schedule");
        assert_ne!(run(11), run(12), "seeds must actually vary the order");
    }

    #[test]
    fn all_kernels_pass_the_default_check() {
        let cfg = CheckConfig::default();
        for report in check_all(700, &cfg).unwrap() {
            assert!(report.multi_rounds > 0, "{report}");
            assert!(report.writes > 0, "{report}");
        }
    }

    #[test]
    fn merge_kernels_cross_validate_on_the_pram_machine() {
        let cfg = CheckConfig::default();
        for kernel in [Kernel::Parallel, Kernel::Batch, Kernel::Kway] {
            let report = check_kernel(kernel, 600, &cfg).unwrap();
            assert!(report.pram_rounds > 0, "{report}");
        }
    }

    #[test]
    fn single_thread_runs_are_accepted_without_vacuity_complaints() {
        let cfg = CheckConfig {
            threads: 1,
            schedules: 2,
            ..CheckConfig::default()
        };
        for &kernel in &Kernel::ALL {
            check_kernel(kernel, 300, &cfg).unwrap();
        }
    }

    #[test]
    fn degenerate_inputs_pass() {
        let cfg = CheckConfig {
            schedules: 3,
            ..CheckConfig::default()
        };
        let (a, _) = default_input(200, 9);
        let empty: Vec<Kv> = Vec::new();
        for &kernel in &Kernel::ALL {
            check_kernel_on(kernel, &a, &empty, &cfg).unwrap();
            check_kernel_on(kernel, &empty, &a, &cfg).unwrap();
            check_kernel_on(kernel, &empty, &empty, &cfg).unwrap();
        }
    }

    #[test]
    fn primitive_key_checks_pass_for_every_kernel() {
        let cfg = CheckConfig {
            schedules: 3,
            ..CheckConfig::default()
        };
        for &kernel in &Kernel::ALL {
            let report = check_kernel_keys(kernel, 700, &cfg).unwrap();
            assert!(report.multi_rounds > 0, "{report}");
        }
    }

    #[test]
    fn kernel_names_round_trip() {
        for &kernel in &Kernel::ALL {
            assert_eq!(Kernel::parse(kernel.name()), Some(kernel));
        }
        assert_eq!(Kernel::parse("bogus"), None);
    }

    #[test]
    fn check_errors_render_their_context() {
        let err = CheckError::WriteOverlap {
            kernel: "parallel",
            schedule: 2,
            round: 1,
            share_a: 0,
            share_b: 3,
            addr: 0x1000,
        };
        let msg = err.to_string();
        assert!(msg.contains("parallel") && msg.contains("0x1000"), "{msg}");
    }
}
