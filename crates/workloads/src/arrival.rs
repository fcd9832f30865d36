//! Deterministic load generation for the serving experiments.
//!
//! The serving daemon (`mergepath-serve`, `mp bench --serve`) needs
//! arrival schedules that look like real traffic — steady trickles,
//! bursts, heavy-tailed lulls — yet are a **pure function of
//! `(seed, config)`** so the traffic behind `BENCH_serve.json` can be
//! regenerated bit-for-bit (`tests/serve_determinism.rs` proves this
//! property).
//!
//! All gap sampling is integer-only (shifts and [`Prng::below`]); no
//! floating-point math is involved, so there is no libm/platform variance
//! to worry about. Timestamps are nanoseconds relative to the start of
//! the run.

use crate::gen::MergeWorkload;
use crate::prng::{splitmix64, Prng};

/// The three arrival processes the load generator can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// Near-constant spacing: consecutive gaps drawn uniformly from
    /// `[mean/2, 3·mean/2)`, so the rate is stable and the queue should
    /// stay shallow.
    Steady,
    /// Bursts of 4–16 requests separated by tiny intra-burst gaps
    /// (`mean/16`-scale), followed by a long inter-burst silence sized so
    /// the long-run mean gap stays near `mean_gap_ns`. Stresses the
    /// bounded queue: admission control must absorb or reject the spike.
    Bursty,
    /// Heavy-tailed gaps: `(mean/4) << k` with `k` geometric (probability
    /// halves per step, capped at 8 doublings), approximating a discrete
    /// Pareto-like process — mostly short gaps with occasional very long
    /// lulls. Stresses deadline expiry after pile-ups.
    HeavyTail,
}

impl ArrivalPattern {
    /// All variants, for exhaustive sweeps.
    pub const ALL: [ArrivalPattern; 3] = [
        ArrivalPattern::Steady,
        ArrivalPattern::Bursty,
        ArrivalPattern::HeavyTail,
    ];

    /// A short stable name for reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalPattern::Steady => "steady",
            ArrivalPattern::Bursty => "bursty",
            ArrivalPattern::HeavyTail => "heavy-tail",
        }
    }

    /// Parses a [`Self::name`] string (the `mp serve --pattern` value).
    pub fn parse(s: &str) -> Option<ArrivalPattern> {
        ArrivalPattern::ALL.iter().copied().find(|p| p.name() == s)
    }
}

/// Configuration for one arrival plan. Together with nothing else, this
/// determines the entire plan ([`arrival_plan`] is deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// The arrival process to sample.
    pub pattern: ArrivalPattern,
    /// Number of requests in the plan.
    pub requests: usize,
    /// Target long-run mean gap between arrivals, nanoseconds.
    pub mean_gap_ns: u64,
    /// Mean relative deadline; each request draws its own deadline
    /// uniformly from `[mean/2, 3·mean/2)` (mean-preserving, like the
    /// length sampling), so deadline-aware queue policies (EDF) have
    /// real reordering decisions to make. 0 = no deadlines anywhere.
    pub deadline_ns: u64,
    /// Mean per-side input length; actual lengths are uniform in
    /// `[mean/2, 3·mean/2)` per side (and at least 1).
    pub mean_len: usize,
    /// Root seed. Everything — gaps, lengths, families, per-request data
    /// seeds — derives from it.
    pub seed: u64,
}

/// One planned request: when it arrives and what it asks the daemon to
/// merge. The input arrays themselves are regenerated on demand from
/// `(workload, len_a, len_b, data_seed)` via
/// [`merge_pair_sized`](crate::gen::merge_pair_sized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpec {
    /// Position in the plan (0-based, dense).
    pub id: usize,
    /// Arrival time, nanoseconds from run start. Non-decreasing in `id`.
    pub arrival_ns: u64,
    /// Relative deadline from arrival (0 = none).
    pub deadline_ns: u64,
    /// Which adversarial input family this request draws from.
    pub workload: MergeWorkload,
    /// Length of the `A` side.
    pub len_a: usize,
    /// Length of the `B` side.
    pub len_b: usize,
    /// Seed for regenerating this request's input arrays.
    pub data_seed: u64,
}

/// Samples one inter-arrival gap for `pattern`.
///
/// `burst_left` carries the bursty pattern's state (requests remaining in
/// the current burst); the other patterns ignore it.
/// All arithmetic saturates: at `u64::MAX`-adjacent means the sampled gap
/// clamps to `u64::MAX` instead of wrapping, so `arrival_plan` stays a
/// pure, monotone function of `(seed, config)` over the *entire* `u64`
/// domain (the clock addition already saturates on its side).
fn next_gap(pattern: ArrivalPattern, mean: u64, rng: &mut Prng, burst_left: &mut u32) -> u64 {
    let mean = mean.max(1);
    match pattern {
        ArrivalPattern::Steady => {
            // Uniform in [mean/2, 3·mean/2): mean-preserving, low variance.
            (mean / 2).saturating_add(rng.below(mean))
        }
        ArrivalPattern::Bursty => {
            if *burst_left == 0 {
                // Start a new burst of 4..=16 requests. The inter-burst
                // gap carries the bulk of the mean: sized near
                // `burst_len · mean` so the long-run rate matches.
                let burst_len = 4 + rng.below(13) as u32;
                *burst_left = burst_len;
                let silence = mean.saturating_mul(burst_len as u64);
                (silence / 2).saturating_add(rng.below(silence))
            } else {
                *burst_left -= 1;
                // Intra-burst: ~mean/16-scale spacing.
                rng.below(mean / 16 + 1)
            }
        }
        ArrivalPattern::HeavyTail => {
            // k successes of a fair coin (capped at 8): P(k) = 2^-(k+1),
            // so E[gap] = (mean/4)·E[2^k] ≈ (mean/4)·(k_cap/2+1) — short
            // gaps dominate, rare gaps reach 256× the base.
            let coins = rng.next_u64();
            let k = (coins.trailing_ones()).min(8);
            (mean / 4).max(1).saturating_mul(1u64 << k)
        }
    }
}

/// Generates the full arrival plan for `cfg`.
///
/// Pure and deterministic: same `cfg` (including `cfg.seed`) ⇒ identical
/// `Vec<RequestSpec>`, on every platform. Arrival times are
/// non-decreasing; request ids are dense `0..requests`.
pub fn arrival_plan(cfg: &PlanConfig) -> Vec<RequestSpec> {
    let mut rng = Prng::seed_from_u64(cfg.seed);
    let mut plan = Vec::with_capacity(cfg.requests);
    let mut clock = 0u64;
    let mut burst_left = 0u32;
    let mean_len = cfg.mean_len.max(1) as u64;
    for id in 0..cfg.requests {
        clock = clock.saturating_add(next_gap(
            cfg.pattern,
            cfg.mean_gap_ns,
            &mut rng,
            &mut burst_left,
        ));
        let workload = MergeWorkload::ALL[rng.below(MergeWorkload::ALL.len() as u64) as usize];
        let len_a = (mean_len / 2 + rng.below(mean_len)).max(1) as usize;
        let len_b = (mean_len / 2 + rng.below(mean_len)).max(1) as usize;
        // Per-request deadline jitter: with every deadline identical the
        // EDF order is the arrival order (absolute deadlines monotone in
        // arrival), so EDF would never reorder anything. Saturating,
        // and clamped to >= 1 so a jittered deadline never collapses into
        // the 0 = "no deadline" sentinel.
        let deadline_ns = if cfg.deadline_ns == 0 {
            0
        } else {
            (cfg.deadline_ns / 2)
                .saturating_add(rng.below(cfg.deadline_ns))
                .max(1)
        };
        // Mix the root seed with the id so per-request data streams are
        // independent yet reproducible in isolation.
        let mut mix = cfg.seed ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15);
        let data_seed = splitmix64(&mut mix);
        plan.push(RequestSpec {
            id,
            arrival_ns: clock,
            deadline_ns,
            workload,
            len_a,
            len_b,
            data_seed,
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(pattern: ArrivalPattern, seed: u64) -> PlanConfig {
        PlanConfig {
            pattern,
            requests: 500,
            mean_gap_ns: 1_000_000,
            deadline_ns: 5_000_000,
            mean_len: 4096,
            seed,
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_seed_and_config() {
        for pattern in ArrivalPattern::ALL {
            let a = arrival_plan(&cfg(pattern, 42));
            let b = arrival_plan(&cfg(pattern, 42));
            assert_eq!(
                a,
                b,
                "{}: same seed must reproduce the plan",
                pattern.name()
            );
            let c = arrival_plan(&cfg(pattern, 43));
            assert_ne!(a, c, "{}: different seed must differ", pattern.name());
        }
    }

    #[test]
    fn plan_shape_invariants() {
        for pattern in ArrivalPattern::ALL {
            let plan = arrival_plan(&cfg(pattern, 7));
            assert_eq!(plan.len(), 500);
            let mut prev = 0u64;
            for (i, r) in plan.iter().enumerate() {
                assert_eq!(r.id, i, "ids dense");
                assert!(r.arrival_ns >= prev, "arrivals non-decreasing");
                prev = r.arrival_ns;
                assert!(r.len_a >= 1 && r.len_b >= 1);
                assert!(r.len_a < 4096 * 2 && r.len_b < 4096 * 2);
                // Jittered deadlines: uniform in [mean/2, 3·mean/2).
                assert!(r.deadline_ns >= 2_500_000 && r.deadline_ns < 7_500_000);
            }
            // The jitter must produce real heterogeneity — identical
            // deadlines would make EDF serve arrival order plan-wide.
            let distinct: std::collections::BTreeSet<u64> =
                plan.iter().map(|r| r.deadline_ns).collect();
            assert!(distinct.len() > 100, "deadline jitter looks degenerate");
        }
    }

    #[test]
    fn zero_mean_deadline_means_no_deadlines_anywhere() {
        let mut c = cfg(ArrivalPattern::Steady, 7);
        c.deadline_ns = 0;
        assert!(arrival_plan(&c).iter().all(|r| r.deadline_ns == 0));
    }

    #[test]
    fn all_nine_families_appear() {
        let plan = arrival_plan(&cfg(ArrivalPattern::Steady, 11));
        for w in MergeWorkload::ALL {
            assert!(
                plan.iter().any(|r| r.workload == w),
                "family {} never drawn in 500 requests",
                w.name()
            );
        }
    }

    #[test]
    fn patterns_have_distinct_gap_profiles() {
        let gaps = |pattern| -> Vec<u64> {
            let plan = arrival_plan(&cfg(pattern, 3));
            plan.windows(2)
                .map(|w| w[1].arrival_ns - w[0].arrival_ns)
                .collect()
        };
        let mean = 1_000_000u64;
        // Steady: every gap inside [mean/2, 3·mean/2).
        for g in gaps(ArrivalPattern::Steady) {
            assert!((mean / 2..mean * 3 / 2).contains(&g), "steady gap {g}");
        }
        // Bursty: majority of gaps tiny (intra-burst), some very large.
        let bursty = gaps(ArrivalPattern::Bursty);
        let tiny = bursty.iter().filter(|&&g| g <= mean / 16).count();
        let huge = bursty.iter().filter(|&&g| g >= mean * 2).count();
        assert!(tiny > bursty.len() / 2, "bursty: {tiny} tiny gaps");
        assert!(huge > 10, "bursty: {huge} inter-burst silences");
        // Heavy-tail: gaps span ≥ 6 doublings of the base.
        let ht = gaps(ArrivalPattern::HeavyTail);
        let base = mean / 4;
        assert!(ht.contains(&base), "heavy-tail base gap");
        assert!(
            ht.iter().any(|&g| g >= base << 6),
            "heavy-tail long lull missing"
        );
        // Long-run mean of each pattern stays within 4x of the target
        // (loose sanity bound, not a distribution test).
        for (name, gs) in [("steady", gaps(ArrivalPattern::Steady)), ("bursty", bursty)] {
            let avg = gs.iter().sum::<u64>() / gs.len() as u64;
            assert!(
                (mean / 4..mean * 4).contains(&avg),
                "{name}: long-run mean {avg} far from {mean}"
            );
        }
    }

    /// Regression pin for the gap-sampler overflow bugs: before the
    /// saturating rewrite, `mean * burst_len` (bursty silence) and
    /// `(mean/4) << k` (heavy-tail lull) wrapped for `u64::MAX`-adjacent
    /// means, producing *small* gaps — arrival times went backwards in
    /// spirit (the plan's purity contract broke because debug and release
    /// builds disagreed). Saturating arithmetic clamps every gap at
    /// `u64::MAX` instead.
    #[test]
    fn extreme_means_saturate_instead_of_wrapping() {
        for pattern in ArrivalPattern::ALL {
            for mean in [u64::MAX, u64::MAX - 1, u64::MAX / 2 + 1, 1u64 << 62] {
                let plan = arrival_plan(&PlanConfig {
                    pattern,
                    requests: 64,
                    mean_gap_ns: mean,
                    deadline_ns: 0,
                    mean_len: 16,
                    seed: 9,
                });
                let mut prev = 0u64;
                for r in &plan {
                    assert!(
                        r.arrival_ns >= prev,
                        "{} mean {mean}: arrivals went backwards",
                        pattern.name()
                    );
                    prev = r.arrival_ns;
                }
                // A first gap at these means is at least mean/16-scale or
                // clamped to the end of the clock — never a tiny wrapped
                // remainder. Steady and heavy-tail first gaps are
                // >= mean/4 by construction.
                if matches!(pattern, ArrivalPattern::Steady | ArrivalPattern::HeavyTail) {
                    assert!(
                        plan[0].arrival_ns >= mean / 4,
                        "{} mean {mean}: wrapped gap {}",
                        pattern.name(),
                        plan[0].arrival_ns
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// Purity and monotonicity hold at `u64::MAX`-adjacent means —
        /// the overflow corner the bugfix targets: same config ⇒
        /// identical plan, arrivals non-decreasing, and the clock clamps
        /// at `u64::MAX` rather than wrapping.
        fn u64_max_adjacent_means_keep_plans_pure(
            pat in 0usize..3,
            mean in (u64::MAX - 4096)..=u64::MAX,
            seed in 0u64..=u64::MAX,
        ) {
            let cfg = PlanConfig {
                pattern: ArrivalPattern::ALL[pat],
                requests: 48,
                mean_gap_ns: mean,
                deadline_ns: 1_000,
                mean_len: 8,
                seed,
            };
            let a = arrival_plan(&cfg);
            let b = arrival_plan(&cfg);
            proptest::prop_assert_eq!(&a, &b, "plan must stay pure");
            let mut prev = 0u64;
            for r in &a {
                proptest::prop_assert!(r.arrival_ns >= prev, "non-decreasing");
                prev = r.arrival_ns;
            }
        }

        /// The half-domain corner (`mean ≈ u64::MAX/2`) that the bursty
        /// silence multiplication (`mean · burst_len`) used to wrap on.
        fn half_domain_means_keep_plans_pure(
            pat in 0usize..3,
            mean in (u64::MAX / 2 - 512)..=(u64::MAX / 2 + 512),
            seed in 0u64..=u64::MAX,
        ) {
            let cfg = PlanConfig {
                pattern: ArrivalPattern::ALL[pat],
                requests: 48,
                mean_gap_ns: mean,
                deadline_ns: 1_000,
                mean_len: 8,
                seed,
            };
            let a = arrival_plan(&cfg);
            let b = arrival_plan(&cfg);
            proptest::prop_assert_eq!(&a, &b, "plan must stay pure");
            let mut prev = 0u64;
            for r in &a {
                proptest::prop_assert!(r.arrival_ns >= prev, "non-decreasing");
                prev = r.arrival_ns;
            }
        }
    }

    #[test]
    fn pattern_names_round_trip() {
        for p in ArrivalPattern::ALL {
            assert_eq!(ArrivalPattern::parse(p.name()), Some(p));
        }
        assert_eq!(ArrivalPattern::parse("poisson"), None);
    }
}
