//! Synthetic Incumbent data set (Table III).
//!
//! The Incumbent relation of the UIS data set \[33\] records "the valid time
//! periods during which projects are assigned to university employees":
//! 83,852 tuples over 16 years, 19 % of which are ongoing after converting
//! unfinished assignments — and all ongoing assignments start within the
//! last year of the history (Fig. 7, bottom right).
//!
//! Schema: `(EmpID: Int, Project: Int, VT: OngoingInterval)`.

use crate::history::History;
use crate::synthetic::sample_day;
use ongoing_core::{OngoingInterval, TimePoint};
use ongoing_relation::{OngoingRelation, Schema, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Full-scale cardinality in the paper.
pub const FULL_SCALE: usize = 83_852;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct IncumbentConfig {
    /// Number of assignment tuples.
    pub n: usize,
    /// Fraction of ongoing assignments (paper: 19 %).
    pub ongoing_pct: f64,
    /// Distinct employees.
    pub employees: usize,
    /// Distinct projects.
    pub projects: usize,
    /// RNG seed.
    pub seed: u64,
}

impl IncumbentConfig {
    /// Scaled configuration with the paper's ratios.
    pub fn scaled(n: usize, seed: u64) -> Self {
        IncumbentConfig {
            n,
            ongoing_pct: 0.19,
            employees: (n / 8).max(1),
            projects: (n / 20).max(1),
            seed,
        }
    }
}

/// Schema of the Incumbent relation.
pub fn incumbent_schema() -> Schema {
    Schema::builder()
        .int("EmpID")
        .int("Project")
        .interval("VT")
        .build()
}

/// Generates the Incumbent relation.
pub fn generate(cfg: &IncumbentConfig) -> OngoingRelation {
    let history = History::incumbent();
    let last_year = history.last_fraction(1.0 / 16.25);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut rel = OngoingRelation::new(incumbent_schema());
    for _ in 0..cfg.n {
        let emp = rng.gen_range(0..cfg.employees) as i64;
        let proj = rng.gen_range(0..cfg.projects) as i64;
        let vt = if rng.gen_bool(cfg.ongoing_pct) {
            // All ongoing project assignments started within the last year
            // of the history (Fig. 7).
            OngoingInterval::from_until_now(sample_day(&mut rng, last_year))
        } else {
            let start = sample_day(&mut rng, history);
            // Project stints of weeks to ~2 years.
            let dur: i64 = rng.gen_range(14..=730);
            let end = TimePoint::new((start.ticks() + dur).min(history.end.ticks() - 1))
                .max_f(start.succ());
            OngoingInterval::fixed(start, end)
        };
        rel.insert(vec![Value::Int(emp), Value::Int(proj), Value::Interval(vt)])
            .expect("schema arity");
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::stats;

    #[test]
    fn ongoing_fraction_matches_table_iii() {
        let rel = generate(&IncumbentConfig::scaled(3000, 11));
        let s = stats(&rel, 2);
        assert_eq!(s.n, 3000);
        assert!((s.ongoing_pct() - 19.0).abs() < 2.0, "{}", s.ongoing_pct());
    }

    #[test]
    fn ongoing_starts_in_last_year() {
        let rel = generate(&IncumbentConfig::scaled(2000, 11));
        let last_year = History::incumbent().last_fraction(1.0 / 16.25);
        for t in rel.iter() {
            let iv = t.value(2).as_interval().unwrap();
            if iv.is_ongoing() {
                assert!(last_year.contains(iv.ts().a()));
            }
        }
    }

    #[test]
    fn fixed_assignments_span_history() {
        let rel = generate(&IncumbentConfig::scaled(2000, 11));
        let h = History::incumbent();
        let mid = h.midpoint();
        let early = rel
            .iter()
            .filter_map(|t| t.value(2).as_interval())
            .filter(|iv| !iv.is_ongoing() && iv.ts().a() < mid)
            .count();
        assert!(early > 500, "fixed starts cover the early history: {early}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&IncumbentConfig::scaled(100, 5));
        let b = generate(&IncumbentConfig::scaled(100, 5));
        assert_eq!(a, b);
    }
}
