//! An idle pool costs no CPU time.
//!
//! The executor lets an idle thread spin for `executor::SPIN_WINDOW`
//! before it blocks. A spin that never gave up would pass every
//! correctness test while burning a core per pool thread, so this binary
//! measures the process's CPU time across a pause after the last round
//! instead. It holds one test, in a binary of its own, so no sibling
//! test's work lands in the measurement. Linux only: it reads `utime`
//! and `stime` from `/proc/self/stat`.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicUsize, Ordering as AtOrd};
use std::time::Duration;

use mergepath_suite::mergepath::executor::{Pool, SPIN_WINDOW};
use mergepath_suite::mergepath::telemetry::NoRecorder;

/// The unit of `utime` and `stime` in `/proc`: `USER_HZ`, which Linux
/// fixes at 100 per second for user-visible interfaces.
const TICK: Duration = Duration::from_millis(10);

/// How long the pool sits idle while its CPU time is measured.
const PAUSE: Duration = Duration::from_millis(300);

/// CPU time the pause may cost: two ticks, plus one that the rounding of
/// the two counters to whole ticks can add on its own. A pool thread
/// that kept spinning would cost about thirty ticks per thread.
const ALLOWED_TICKS: u64 = 3;

/// The process's user plus system CPU time so far, in ticks, summed over
/// all of its threads.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) may contain spaces; count fields from
    // the state (field 3), right after its closing parenthesis.
    let after_comm = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let field = |n: usize| -> u64 {
        fields[n - 3]
            .parse()
            .expect("utime and stime are whole ticks")
    };
    field(14) + field(15)
}

#[test]
fn pool_threads_stop_spinning_once_idle() {
    assert!(
        SPIN_WINDOW * 10 < PAUSE,
        "the pause must dwarf the spin window"
    );
    let pool = Pool::new(4);
    let executed = AtomicUsize::new(0);
    let mut expected = 0;
    for round in 0..200 {
        let shares = 2 + round % 7;
        pool.run_indexed(shares, shares, &NoRecorder, &|_| {
            executed.fetch_add(1, AtOrd::Relaxed);
        });
        expected += shares;
    }
    assert_eq!(executed.load(AtOrd::Relaxed), expected);

    let before = cpu_ticks();
    std::thread::sleep(PAUSE);
    let used = cpu_ticks() - before;
    assert!(
        used <= ALLOWED_TICKS,
        "an idle pool used {used} ticks ({:?}) of CPU in {PAUSE:?}: a thread kept spinning",
        TICK * used as u32
    );

    // The parked team still answers.
    pool.run_indexed(4, 4, &NoRecorder, &|_| {
        executed.fetch_add(1, AtOrd::Relaxed);
    });
    assert_eq!(executed.load(AtOrd::Relaxed), expected + 4);
}
