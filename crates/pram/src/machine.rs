//! The CREW PRAM machine: shared memory, lockstep supersteps, conflict
//! detection, and the unit-cost time model.

use std::collections::HashMap;

/// A CREW (concurrent-read, exclusive-write) violation detected during a
/// superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PramError {
    /// Two processors wrote the same address in one superstep.
    ExclusiveWriteConflict {
        /// The contended address.
        addr: usize,
        /// The first writer observed.
        first_pid: usize,
        /// The conflicting writer.
        second_pid: usize,
    },
    /// One processor read an address another wrote in the same superstep
    /// (the value such a read observes is machine-dependent; the simulator
    /// treats it as an error).
    ReadWriteRace {
        /// The contended address.
        addr: usize,
        /// The reading processor.
        reader: usize,
        /// The writing processor.
        writer: usize,
    },
    /// Two processors read the same address in one superstep while the
    /// machine was in EREW mode (exclusive-read, exclusive-write).
    ConcurrentRead {
        /// The contended address.
        addr: usize,
        /// The first reader observed.
        first_pid: usize,
        /// The conflicting reader.
        second_pid: usize,
    },
}

/// The memory access discipline the machine enforces (paper, §I: "PRAM
/// systems are further categorized as CRCW, CREW, ERCW or EREW").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryMode {
    /// Concurrent reads allowed, writes exclusive — the paper's model.
    #[default]
    Crew,
    /// Both reads and writes exclusive — the model of the Akl–Santoro
    /// baseline (paper, ref \[5\]).
    Erew,
}

impl core::fmt::Display for PramError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            PramError::ExclusiveWriteConflict {
                addr,
                first_pid,
                second_pid,
            } => write!(
                f,
                "exclusive-write violation at address {addr}: processors {first_pid} and {second_pid}"
            ),
            PramError::ReadWriteRace {
                addr,
                reader,
                writer,
            } => write!(
                f,
                "read/write race at address {addr}: processor {reader} read while {writer} wrote"
            ),
            PramError::ConcurrentRead {
                addr,
                first_pid,
                second_pid,
            } => write!(
                f,
                "EREW violation at address {addr}: processors {first_pid} and {second_pid} both read"
            ),
        }
    }
}

impl std::error::Error for PramError {}

/// Result of one superstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// Superstep elapsed time: the maximum per-processor cost — or, under
    /// a finite memory bandwidth, the memory-service time if that is
    /// larger.
    pub time: u64,
    /// Total operations across processors (the work model).
    pub work: u64,
    /// Total shared-memory accesses (reads + writes) across processors.
    pub mem_ops: u64,
    /// Per-processor costs, indexed by pid.
    pub per_proc: Vec<u64>,
}

/// Per-processor execution context handed to a superstep kernel.
///
/// All reads observe the memory state from *before* the superstep; writes
/// are buffered and applied at the superstep boundary. Every read and write
/// costs one time unit; local computation is charged via [`ProcCtx::tick`].
pub struct ProcCtx<'m> {
    pid: usize,
    mem: &'m mut [u64],
    pending: Vec<(usize, u64)>,
    reads: Vec<usize>,
    buffered: bool,
    cost: u64,
    mem_ops: u64,
}

impl ProcCtx<'_> {
    /// This processor's id (`0..p`).
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Reads shared memory (1 time unit).
    ///
    /// # Panics
    /// Panics if `addr` is out of bounds.
    pub fn read(&mut self, addr: usize) -> u64 {
        self.cost += 1;
        self.mem_ops += 1;
        if self.buffered {
            self.reads.push(addr);
        }
        self.mem[addr]
    }

    /// Writes shared memory (1 time unit). With CREW checking on, the write
    /// becomes visible to other processors only after the superstep
    /// completes; in cost-model mode it applies immediately.
    ///
    /// # Panics
    /// Panics if `addr` is out of bounds.
    pub fn write(&mut self, addr: usize, value: u64) {
        assert!(addr < self.mem.len(), "PRAM write out of bounds: {addr}");
        self.cost += 1;
        self.mem_ops += 1;
        if self.buffered {
            self.pending.push((addr, value));
        } else {
            self.mem[addr] = value;
        }
    }

    /// Charges `n` time units of local computation (e.g. a comparison).
    pub fn tick(&mut self, n: u64) {
        self.cost += n;
    }

    /// Cost accumulated so far in this superstep.
    pub fn cost(&self) -> u64 {
        self.cost
    }
}

/// A simulated CREW PRAM.
///
/// # Examples
/// ```
/// use mergepath_pram::PramMachine;
///
/// let mut m = PramMachine::new();
/// let a = m.load(&[10, 20, 30, 40]);
/// let out = m.alloc(4);
/// // 4 processors each double one element — conflict-free.
/// let report = m.step(4, |pid, ctx| {
///     let v = ctx.read(a + pid);
///     ctx.write(out + pid, v * 2);
/// }).unwrap();
/// assert_eq!(report.time, 2); // one read + one write, in parallel
/// assert_eq!(m.read_slice(out, 4), [20, 40, 60, 80]);
/// ```
#[derive(Debug, Default)]
pub struct PramMachine {
    mem: Vec<u64>,
    time: u64,
    work: u64,
    supersteps: u64,
    crew_checking: bool,
    bandwidth: Option<f64>,
    mode: MemoryMode,
}

impl PramMachine {
    /// An empty machine with CREW checking enabled.
    pub fn new() -> Self {
        PramMachine {
            mem: Vec::new(),
            time: 0,
            work: 0,
            supersteps: 0,
            crew_checking: true,
            bandwidth: None,
            mode: MemoryMode::Crew,
        }
    }

    /// Selects the access discipline ([`MemoryMode::Crew`] by default).
    /// EREW violations are only detected while checking is enabled.
    pub fn with_memory_mode(mut self, mode: MemoryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Changes the access discipline mid-run — used to verify that
    /// individual supersteps of an algorithm satisfy a stricter discipline
    /// than the algorithm as a whole.
    pub fn set_memory_mode(&mut self, mode: MemoryMode) {
        self.mode = mode;
    }

    /// Limits aggregate shared-memory throughput to `words_per_unit`
    /// accesses per time unit: a superstep then takes
    /// `max(max per-processor cost, ceil(total accesses / bandwidth))`.
    ///
    /// The ideal PRAM has unlimited bandwidth; a real shared-memory machine
    /// does not, and it is exactly this limit that bends the paper's
    /// Figure 5 below perfectly-linear speedup at high thread counts and
    /// DRAM-resident sizes.
    pub fn with_memory_bandwidth(mut self, words_per_unit: f64) -> Self {
        assert!(words_per_unit > 0.0, "bandwidth must be positive");
        self.bandwidth = Some(words_per_unit);
        self
    }

    /// Enables or disables CREW conflict detection.
    ///
    /// With checking **on** (the default), every read is logged, writes are
    /// buffered until the superstep boundary, and both exclusive-write
    /// conflicts and read/write races abort the step. With checking
    /// **off**, the machine becomes a pure cost model: accesses are only
    /// counted and writes apply immediately — use it for large
    /// measurement runs of kernels already proven conflict-free under
    /// checking (every kernel in [`crate::kernels`] is, by its tests).
    pub fn with_crew_checking(mut self, on: bool) -> Self {
        self.crew_checking = on;
        self
    }

    /// Allocates `n` zeroed words and returns the base address.
    pub fn alloc(&mut self, n: usize) -> usize {
        let base = self.mem.len();
        self.mem.resize(base + n, 0);
        base
    }

    /// Allocates and initializes memory from `data`; returns the base.
    pub fn load(&mut self, data: &[u64]) -> usize {
        let base = self.mem.len();
        self.mem.extend_from_slice(data);
        base
    }

    /// Copies `len` words starting at `base` out of shared memory.
    pub fn read_slice(&self, base: usize, len: usize) -> Vec<u64> {
        self.mem[base..base + len].to_vec()
    }

    /// Total simulated time (sum of superstep maxima).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Total simulated work (sum over all processors and supersteps).
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Number of supersteps executed.
    pub fn supersteps(&self) -> u64 {
        self.supersteps
    }

    /// Resets the time/work/superstep counters (memory is preserved).
    pub fn reset_counters(&mut self) {
        self.time = 0;
        self.work = 0;
        self.supersteps = 0;
    }

    /// Executes one superstep: `kernel(pid, ctx)` runs once for each
    /// `pid in 0..p` against a snapshot of memory; buffered writes are
    /// applied afterwards. Returns the step costs, or the first CREW
    /// violation found.
    ///
    /// On a violation the superstep is *not* applied and the machine's
    /// counters are left unchanged.
    pub fn step<K>(&mut self, p: usize, mut kernel: K) -> Result<StepReport, PramError>
    where
        K: FnMut(usize, &mut ProcCtx<'_>),
    {
        assert!(p > 0, "a superstep needs at least one processor");
        let buffered = self.crew_checking;
        let mut per_proc = Vec::with_capacity(p);
        let mut mem_total = 0u64;
        let mut all_writes: Vec<(usize, Vec<(usize, u64)>)> = Vec::new();
        let mut all_reads: Vec<(usize, Vec<usize>)> = Vec::new();
        for pid in 0..p {
            let mut ctx = ProcCtx {
                pid,
                mem: &mut self.mem,
                pending: Vec::new(),
                reads: Vec::new(),
                buffered,
                cost: 0,
                mem_ops: 0,
            };
            kernel(pid, &mut ctx);
            per_proc.push(ctx.cost);
            mem_total += ctx.mem_ops;
            if buffered {
                all_writes.push((pid, ctx.pending));
                all_reads.push((pid, ctx.reads));
            }
        }

        if buffered {
            // Exclusive-write check: at most one processor per address.
            let mut writer_of: HashMap<usize, usize> = HashMap::new();
            for (pid, writes) in &all_writes {
                for &(addr, _) in writes {
                    match writer_of.insert(addr, *pid) {
                        Some(prev) if prev != *pid => {
                            return Err(PramError::ExclusiveWriteConflict {
                                addr,
                                first_pid: prev,
                                second_pid: *pid,
                            });
                        }
                        _ => {}
                    }
                }
            }
            // Read/write race check.
            for (pid, reads) in &all_reads {
                for addr in reads {
                    if let Some(&writer) = writer_of.get(addr) {
                        if writer != *pid {
                            return Err(PramError::ReadWriteRace {
                                addr: *addr,
                                reader: *pid,
                                writer,
                            });
                        }
                    }
                }
            }
            // Exclusive-read check (EREW mode only).
            if self.mode == MemoryMode::Erew {
                let mut reader_of: HashMap<usize, usize> = HashMap::new();
                for (pid, reads) in &all_reads {
                    for &addr in reads {
                        match reader_of.insert(addr, *pid) {
                            Some(prev) if prev != *pid => {
                                return Err(PramError::ConcurrentRead {
                                    addr,
                                    first_pid: prev,
                                    second_pid: *pid,
                                });
                            }
                            _ => {}
                        }
                    }
                }
            }
            // Commit.
            for (_, writes) in all_writes {
                for (addr, value) in writes {
                    self.mem[addr] = value;
                }
            }
        }
        let compute_time = per_proc.iter().copied().max().unwrap_or(0);
        let time = match self.bandwidth {
            Some(bw) => compute_time.max((mem_total as f64 / bw).ceil() as u64),
            None => compute_time,
        };
        let work: u64 = per_proc.iter().sum();
        self.time += time;
        self.work += work;
        self.supersteps += 1;
        Ok(StepReport {
            time,
            work,
            mem_ops: mem_total,
            per_proc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_load_layout() {
        let mut m = PramMachine::new();
        let a = m.load(&[1, 2, 3]);
        let b = m.alloc(2);
        assert_eq!(a, 0);
        assert_eq!(b, 3);
        assert_eq!(m.read_slice(a, 3), [1, 2, 3]);
        assert_eq!(m.read_slice(b, 2), [0, 0]);
    }

    #[test]
    fn step_costs_are_max_and_sum() {
        let mut m = PramMachine::new();
        let base = m.alloc(8);
        let report = m
            .step(4, |pid, ctx| {
                // pid k performs k+1 writes to its private region.
                for i in 0..=pid {
                    ctx.write(base + pid * 2 + (i % 2), i as u64);
                }
            })
            .unwrap();
        assert_eq!(report.per_proc, vec![1, 2, 3, 4]);
        assert_eq!(report.time, 4);
        assert_eq!(report.work, 10);
        assert_eq!(m.time(), 4);
        assert_eq!(m.work(), 10);
        assert_eq!(m.supersteps(), 1);
    }

    #[test]
    fn writes_apply_at_superstep_boundary() {
        let mut m = PramMachine::new();
        let base = m.load(&[7, 7]);
        // Processor 0 writes addr 0; processor 1 reads addr 1 (no race) and
        // must observe the OLD value of addr 0 via its own read? — it may
        // not read addr 0 at all (that would race); it reads addr 1.
        m.step(2, |pid, ctx| {
            if pid == 0 {
                ctx.write(base, 42);
            } else {
                assert_eq!(ctx.read(base + 1), 7);
            }
        })
        .unwrap();
        assert_eq!(m.read_slice(base, 2), [42, 7]);
    }

    #[test]
    fn reads_within_step_see_snapshot() {
        let mut m = PramMachine::new();
        let base = m.load(&[1]);
        // A single processor writes then reads the same address: the read
        // sees the pre-step value (reads-before-writes superstep semantics).
        m.step(1, |_, ctx| {
            ctx.write(base, 99);
            assert_eq!(ctx.read(base), 1);
        })
        .unwrap();
        assert_eq!(m.read_slice(base, 1), [99]);
    }

    #[test]
    fn detects_exclusive_write_conflict() {
        let mut m = PramMachine::new();
        let base = m.alloc(1);
        let err = m.step(2, |_, ctx| ctx.write(base, 5)).unwrap_err();
        assert!(matches!(err, PramError::ExclusiveWriteConflict { addr, .. } if addr == base));
        // Counters unchanged, memory unchanged.
        assert_eq!(m.time(), 0);
        assert_eq!(m.read_slice(base, 1), [0]);
    }

    #[test]
    fn detects_read_write_race() {
        let mut m = PramMachine::new();
        let base = m.alloc(2);
        let err = m
            .step(2, |pid, ctx| {
                if pid == 0 {
                    ctx.write(base, 1);
                } else {
                    let _ = ctx.read(base);
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            PramError::ReadWriteRace {
                reader: 1,
                writer: 0,
                ..
            }
        ));
    }

    #[test]
    fn own_write_then_read_is_not_a_race() {
        let mut m = PramMachine::new();
        let base = m.alloc(1);
        m.step(1, |_, ctx| {
            ctx.write(base, 3);
            let _ = ctx.read(base);
        })
        .unwrap();
    }

    #[test]
    fn concurrent_reads_are_allowed() {
        let mut m = PramMachine::new();
        let base = m.load(&[11]);
        let report = m
            .step(8, |_, ctx| {
                assert_eq!(ctx.read(base), 11);
            })
            .unwrap();
        assert_eq!(report.time, 1);
        assert_eq!(report.work, 8);
    }

    #[test]
    fn cost_model_mode_skips_checks_but_counts() {
        let mut m = PramMachine::new().with_crew_checking(false);
        let base = m.alloc(2);
        // Races and conflicts go undetected (documented cost-model mode) …
        let report = m
            .step(2, |pid, ctx| {
                if pid == 0 {
                    ctx.write(base, 1);
                } else {
                    let _ = ctx.read(base);
                }
                ctx.write(base + 1, pid as u64);
            })
            .unwrap();
        // … but costs are still charged (2 ops for pid 0, 2 for pid 1) and
        // writes land (last writer wins).
        assert_eq!(report.time, 2);
        assert_eq!(report.work, 4);
        assert_eq!(m.read_slice(base, 2), [1, 1]);
    }

    #[test]
    fn tick_charges_local_compute() {
        let mut m = PramMachine::new();
        let report = m
            .step(2, |pid, ctx| {
                ctx.tick(if pid == 0 { 10 } else { 3 });
            })
            .unwrap();
        assert_eq!(report.time, 10);
        assert_eq!(report.work, 13);
    }

    #[test]
    fn reset_counters_preserves_memory() {
        let mut m = PramMachine::new();
        let base = m.load(&[5]);
        m.step(1, |_, ctx| {
            let _ = ctx.read(base);
        })
        .unwrap();
        assert!(m.time() > 0);
        m.reset_counters();
        assert_eq!(m.time(), 0);
        assert_eq!(m.supersteps(), 0);
        assert_eq!(m.read_slice(base, 1), [5]);
    }

    #[test]
    fn erew_mode_rejects_concurrent_reads() {
        let mut m = PramMachine::new().with_memory_mode(MemoryMode::Erew);
        let base = m.load(&[5]);
        let err = m
            .step(2, |_, ctx| {
                let _ = ctx.read(base);
            })
            .unwrap_err();
        assert!(matches!(
            err,
            PramError::ConcurrentRead { addr, .. } if addr == base
        ));
        // Counters untouched by the failed step.
        assert_eq!(m.supersteps(), 0);
    }

    #[test]
    fn erew_mode_allows_disjoint_reads() {
        let mut m = PramMachine::new().with_memory_mode(MemoryMode::Erew);
        let base = m.load(&[1, 2, 3, 4]);
        let r = m
            .step(4, |pid, ctx| {
                assert_eq!(ctx.read(base + pid), pid as u64 + 1);
            })
            .unwrap();
        assert_eq!(r.time, 1);
    }

    #[test]
    fn mode_can_change_between_steps() {
        let mut m = PramMachine::new(); // CREW
        let base = m.load(&[7]);
        m.step(3, |_, ctx| {
            let _ = ctx.read(base);
        })
        .unwrap();
        m.set_memory_mode(MemoryMode::Erew);
        assert!(m
            .step(3, |_, ctx| {
                let _ = ctx.read(base);
            })
            .is_err());
    }

    #[test]
    fn bandwidth_limit_extends_superstep_time() {
        let mut m = PramMachine::new()
            .with_crew_checking(false)
            .with_memory_bandwidth(2.0);
        let base = m.alloc(64);
        // 4 processors × 8 writes = 32 mem ops; compute time 8; memory
        // service time ceil(32 / 2) = 16 dominates.
        let r = m
            .step(4, |pid, ctx| {
                for i in 0..8 {
                    ctx.write(base + pid * 8 + i, 1);
                }
            })
            .unwrap();
        assert_eq!(r.mem_ops, 32);
        assert_eq!(r.time, 16);
    }

    #[test]
    fn error_messages_render() {
        let e = PramError::ExclusiveWriteConflict {
            addr: 9,
            first_pid: 0,
            second_pid: 1,
        };
        assert!(e.to_string().contains("address 9"));
        let e = PramError::ReadWriteRace {
            addr: 3,
            reader: 2,
            writer: 1,
        };
        assert!(e.to_string().contains("race"));
        let e = PramError::ConcurrentRead {
            addr: 4,
            first_pid: 0,
            second_pid: 3,
        };
        assert!(e.to_string().contains("EREW"));
    }
}
