//! Thread placement for `merge_small`, whose parallel merges last tens of
//! microseconds.
//!
//! The pool's workers sleep between operations, and the kernel picks a CPU
//! for a worker each time it wakes one. On the 2-vCPU guest this benchmark
//! was calibrated on, it picked the caller's own CPU for minutes at a time
//! (a paravirtualised guest treats a vCPU the host has just descheduled as
//! busy). The worker then only takes turns with the caller, so every
//! parallel merge ran as fast as the one-thread merge, and `speedup_t1`
//! moved between about 1.05 and 1.33 from one run to the next. Pinning the
//! caller and each worker to CPUs of their own takes that choice away, as
//! `taskset` would from outside.

/// Pins the calling thread to one CPU this process may run on, and every
/// other thread of the process to another one each. Returns whether it
/// did: not when the process has no other thread, or fewer CPUs than
/// threads, or off Linux.
pub fn pin_threads() -> bool {
    imp::pin_threads().is_some()
}

#[cfg(target_os = "linux")]
mod imp {
    /// The C library's `cpu_set_t`: one bit for each of 1024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn pin_threads() -> Option<()> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable `cpu_set_t` of the size passed;
        // pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut allowed) } != 0 {
            return None;
        }
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| (allowed[c / 64] >> (c % 64)) & 1 == 1)
            .collect();
        // "<pid>/task/<tid>" of the calling thread.
        let me: i32 = std::fs::read_link("/proc/thread-self")
            .ok()?
            .file_name()?
            .to_str()?
            .parse()
            .ok()?;
        let mut others: Vec<i32> = std::fs::read_dir("/proc/self/task")
            .ok()?
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
            .filter(|&tid| tid != me)
            .collect();
        others.sort_unstable();
        if others.is_empty() || others.len() >= cpus.len() {
            return None;
        }
        for (tid, cpu) in std::iter::once(me).chain(others).zip(cpus) {
            let mut one: CpuSet = [0; 16];
            one[cpu / 64] |= 1 << (cpu % 64);
            // SAFETY: `one` is a valid `cpu_set_t` of the size passed, and
            // `tid` names a thread of this process.
            if unsafe { sched_setaffinity(tid, size_of::<CpuSet>(), &one) } != 0 {
                return None;
            }
        }
        Some(())
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_threads() -> Option<()> {
        None
    }
}
