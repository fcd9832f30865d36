//! Deterministic replay of the minimized corpus in `tests/corpus/`.
//!
//! Every corpus file is a `(A, B)` pair of sorted runs that once stressed a
//! partition boundary (see `tests/corpus/README.md` for the format and the
//! minimization rules). This single test replays each of them through the
//! schedule checker: all nine kernels, several permuted virtual schedules,
//! CREW disjointness + coverage + Thm 14 + oracle equality per schedule.
//! Fixed seeds, no randomness — a failure here is a reproducer, not a
//! flake.

use std::path::PathBuf;

use mergepath_check::{check_kernel_on, CheckConfig, Kernel, Kv};

fn parse_case(name: &str, contents: &str) -> (Vec<Kv>, Vec<Kv>) {
    let mut runs: Vec<Vec<i32>> = contents
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .take(2)
        .map(|line| {
            line.split_whitespace()
                .map(|w| {
                    w.parse::<i32>()
                        .unwrap_or_else(|_| panic!("{name}: bad key {w:?}"))
                })
                .collect()
        })
        .collect();
    assert_eq!(runs.len(), 2, "{name}: expected two key lines");
    let kb = runs.pop().unwrap();
    let ka = runs.pop().unwrap();
    for (side, keys) in [("A", &ka), ("B", &kb)] {
        assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "{name}: run {side} is not sorted"
        );
    }
    let tag = |keys: &[i32], tag0: u32| -> Vec<Kv> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (k, tag0 + i as u32))
            .collect()
    };
    (tag(&ka, 0), tag(&kb, 1_000_000))
}

#[test]
fn corpus_replays_clean_through_the_schedule_checker() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut cases: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("corpus dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "txt"))
        .collect();
    cases.sort();
    assert!(
        cases.len() >= 6,
        "corpus shrank to {} case(s) — was a file lost?",
        cases.len()
    );
    for path in cases {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let contents = std::fs::read_to_string(&path).expect("readable corpus file");
        let (a, b) = parse_case(&name, &contents);
        for threads in [2usize, 4, 8] {
            let cfg = CheckConfig {
                threads,
                schedules: 8,
                seed: 0xC0_2B05 ^ threads as u64,
                pram_limit: 4096,
            };
            for &kernel in &Kernel::ALL {
                if let Err(e) = check_kernel_on(kernel, &a, &b, &cfg) {
                    panic!("corpus {name}: {} threads={threads}: {e}", kernel.name());
                }
            }
        }
    }
}
