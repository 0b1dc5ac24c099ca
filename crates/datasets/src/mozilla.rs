//! Synthetic MozillaBugs data set (Table III, Fig. 7, Table V).
//!
//! The real MozillaBugs dump \[32\] records the bug history of the Mozilla
//! project in three relations. We synthesize relations with the same
//! aggregate statistics:
//!
//! | relation | cardinality ratio | % ongoing | avg tuple size |
//! |----------|-------------------|-----------|----------------|
//! | BugInfo B | 1.000 (394,878 at full scale) | 15 % | ≈ 968 B |
//! | BugAssignment A | 1.476 | 11 % | ≈ 90 B |
//! | BugSeverity S | 1.099 | 14 % | ≈ 86 B |
//!
//! Valid times are `[a, now)` over a 20-year history; ~50 % of the ongoing
//! intervals start within the last two years (the Fig. 7 skew). A bug with
//! an ongoing valid time propagates an ongoing valid time to its *last*
//! assignment and *last* severity, matching the dump's construction.
//!
//! Scaling down (`bugs < 394,878`) mirrors the paper's procedure of growing
//! the history backward: smaller data sets cover a proportionally shorter,
//! recent slice of history, so the share of ongoing tuples *grows* as the
//! data shrinks (and vice versa, "the percentage of ongoing time intervals
//! decreases as the data size grows").

use crate::history::History;
use crate::synthetic::sample_day;
use crate::text;
use ongoing_core::{OngoingInterval, TimePoint};
use ongoing_relation::{OngoingRelation, Schema, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Full-scale cardinality of `BugInfo` in the paper.
pub const FULL_SCALE_BUGS: usize = 394_878;
/// `BugAssignment` over `BugInfo` cardinality ratio.
pub const ASSIGNMENT_RATIO: f64 = 582_668.0 / 394_878.0;
/// `BugSeverity` over `BugInfo` cardinality ratio.
pub const SEVERITY_RATIO: f64 = 434_078.0 / 394_878.0;

/// Severity labels (weighted towards `normal`; `major` drives `QC⋈`).
pub const SEVERITIES: &[(&str, f64)] = &[
    ("trivial", 0.06),
    ("minor", 0.12),
    ("normal", 0.52),
    ("major", 0.18),
    ("critical", 0.09),
    ("blocker", 0.03),
];

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct MozillaConfig {
    /// Number of bugs (`BugInfo` cardinality).
    pub bugs: usize,
    /// Fraction of bugs with ongoing valid times at full scale.
    pub ongoing_pct: f64,
    /// Fraction of the ongoing intervals whose start lies in the last two
    /// years (Fig. 7: ≈ 50 %).
    pub recent_skew: f64,
    /// Average description length in bytes (drives the ≈ 968 B tuples of
    /// Table V).
    pub description_len: usize,
    /// Distinct products.
    pub products: usize,
    /// Distinct components per product.
    pub components_per_product: usize,
    /// Distinct operating systems.
    pub oses: usize,
    /// Distinct assignee e-mail addresses.
    pub assignees: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MozillaConfig {
    /// A laptop-scale default (the `repro_*` binaries pass explicit sizes).
    pub fn scaled(bugs: usize, seed: u64) -> Self {
        MozillaConfig {
            bugs,
            ongoing_pct: 0.15,
            recent_skew: 0.5,
            description_len: 840,
            products: 10,
            components_per_product: 12,
            oses: 8,
            assignees: 500,
            seed,
        }
    }
}

/// The three generated relations.
#[derive(Debug, Clone)]
pub struct MozillaBugs {
    /// `BugInfo(ID, Product, Component, OS, Description, VT)`.
    pub bug_info: OngoingRelation,
    /// `BugAssignment(ID, Assignee, VT)`.
    pub bug_assignment: OngoingRelation,
    /// `BugSeverity(ID, Severity, VT)`.
    pub bug_severity: OngoingRelation,
}

/// Schema of `BugInfo`.
pub fn bug_info_schema() -> Schema {
    Schema::builder()
        .int("ID")
        .str("Product")
        .str("Component")
        .str("OS")
        .str("Description")
        .interval("VT")
        .build()
}

/// Schema of `BugAssignment`.
pub fn bug_assignment_schema() -> Schema {
    Schema::builder()
        .int("ID")
        .str("Assignee")
        .interval("VT")
        .build()
}

/// Schema of `BugSeverity`.
pub fn bug_severity_schema() -> Schema {
    Schema::builder()
        .int("ID")
        .str("Severity")
        .interval("VT")
        .build()
}

fn pick_severity<R: Rng>(rng: &mut R) -> &'static str {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (name, w) in SEVERITIES {
        acc += w;
        if x < acc {
            return name;
        }
    }
    SEVERITIES.last().unwrap().0
}

/// Generates the MozillaBugs relations.
pub fn generate(cfg: &MozillaConfig) -> MozillaBugs {
    let history = History::mozilla();
    let recent = history.last_fraction(2.0 / 19.3); // last two years
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    let mut bug_info = OngoingRelation::new(bug_info_schema());
    let mut bug_assignment = OngoingRelation::new(bug_assignment_schema());
    let mut bug_severity = OngoingRelation::new(bug_severity_schema());

    for id in 0..cfg.bugs {
        let ongoing = rng.gen_bool(cfg.ongoing_pct);
        let start = if ongoing && rng.gen_bool(cfg.recent_skew) {
            sample_day(&mut rng, recent)
        } else {
            sample_day(&mut rng, history)
        };
        let vt = if ongoing {
            OngoingInterval::from_until_now(start)
        } else {
            // Bug-resolution lag: a few days to a couple of years.
            let dur = 1 + (rng.gen_range(0.0f64..1.0).powi(3) * 700.0) as i64;
            let end = TimePoint::new((start.ticks() + dur).min(history.end.ticks() - 1))
                .max_f(start.succ());
            OngoingInterval::fixed(start, end)
        };
        let product = rng.gen_range(0..cfg.products);
        let component = rng.gen_range(0..cfg.components_per_product);
        let os = rng.gen_range(0..cfg.oses);
        bug_info
            .insert(vec![
                Value::Int(id as i64),
                Value::str(&format!("product-{product}")),
                Value::str(&format!("comp-{product}-{component}")),
                Value::str(&format!("os-{os}")),
                Value::str(&text::description(&mut rng, cfg.description_len)),
                Value::Interval(vt),
            ])
            .expect("schema arity");

        // Assignments and severities partition the bug's open period into
        // consecutive sub-intervals; the last one inherits the ongoing end.
        let bug_start = start;
        let bug_end_fixed = match vt.te().is_ongoing() {
            true => None,
            false => Some(vt.te().a()),
        };
        emit_sub_intervals(
            &mut rng,
            &mut bug_assignment,
            id as i64,
            bug_start,
            bug_end_fixed,
            history,
            ASSIGNMENT_RATIO,
            |rng| Value::str(&text::email(rng, cfg.assignees)),
        );
        emit_sub_intervals(
            &mut rng,
            &mut bug_severity,
            id as i64,
            bug_start,
            bug_end_fixed,
            history,
            SEVERITY_RATIO,
            |rng| Value::str(pick_severity(rng)),
        );
    }
    MozillaBugs {
        bug_info,
        bug_assignment,
        bug_severity,
    }
}

/// Splits `[start, end-or-now)` into `~ratio` consecutive pieces and emits
/// one tuple per piece; the final piece of an unresolved bug is ongoing.
#[allow(clippy::too_many_arguments)]
fn emit_sub_intervals<R: Rng>(
    rng: &mut R,
    out: &mut OngoingRelation,
    id: i64,
    start: TimePoint,
    end_fixed: Option<TimePoint>,
    history: History,
    ratio: f64,
    mut payload: impl FnMut(&mut R) -> Value,
) {
    // Expected count ~ ratio: floor + probabilistic extra.
    let base = ratio.floor() as usize;
    let extra = rng.gen_bool(ratio - ratio.floor());
    let pieces = (base + usize::from(extra)).max(1);
    let span_end = end_fixed.unwrap_or(history.end);
    let span = start.distance_to(span_end).max(pieces as i64);
    let mut cur = start;
    for p in 0..pieces {
        let last = p + 1 == pieces;
        let vt = if last {
            match end_fixed {
                Some(e) => OngoingInterval::fixed(cur, e.max_f(cur.succ())),
                None => OngoingInterval::from_until_now(cur),
            }
        } else {
            let step = (span / pieces as i64).max(1);
            let jitter = rng.gen_range(0..=step / 2);
            let next = TimePoint::new(cur.ticks() + step - jitter).max_f(cur.succ());
            let iv = OngoingInterval::fixed(cur, next);
            cur = next;
            iv
        };
        out.push(ongoing_relation::Tuple::base(vec![
            Value::Int(id),
            payload(rng),
            Value::Interval(vt),
        ]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::stats;

    fn small() -> MozillaBugs {
        generate(&MozillaConfig::scaled(800, 42))
    }

    #[test]
    fn cardinality_ratios_match_table_iii() {
        let m = small();
        assert_eq!(m.bug_info.len(), 800);
        let a_ratio = m.bug_assignment.len() as f64 / m.bug_info.len() as f64;
        let s_ratio = m.bug_severity.len() as f64 / m.bug_info.len() as f64;
        assert!(
            (a_ratio - ASSIGNMENT_RATIO).abs() < 0.1,
            "A ratio {a_ratio}"
        );
        assert!((s_ratio - SEVERITY_RATIO).abs() < 0.1, "S ratio {s_ratio}");
    }

    #[test]
    fn ongoing_fractions_match_table_iii() {
        let m = small();
        let b = stats(&m.bug_info, 5).ongoing_pct();
        let a = stats(&m.bug_assignment, 2).ongoing_pct();
        let s = stats(&m.bug_severity, 2).ongoing_pct();
        assert!((b - 15.0).abs() < 3.0, "B ongoing {b}%");
        assert!((a - 11.0).abs() < 3.5, "A ongoing {a}%");
        assert!((s - 14.0).abs() < 3.5, "S ongoing {s}%");
    }

    #[test]
    fn fig7_skew_half_of_ongoing_in_last_two_years() {
        let m = generate(&MozillaConfig::scaled(3000, 7));
        let history = History::mozilla();
        let recent = history.last_fraction(2.0 / 19.3);
        let mut ongoing = 0usize;
        let mut recent_cnt = 0usize;
        for t in m.bug_info.iter() {
            let iv = t.value(5).as_interval().unwrap();
            if iv.is_ongoing() {
                ongoing += 1;
                if recent.contains(iv.ts().a()) {
                    recent_cnt += 1;
                }
            }
        }
        let frac = recent_cnt as f64 / ongoing as f64;
        // 50% targeted + ~10% of the uniform half lands there too.
        assert!((0.45..0.70).contains(&frac), "recent fraction {frac}");
    }

    #[test]
    fn last_piece_of_ongoing_bug_is_ongoing() {
        let m = small();
        // For each ongoing bug, its assignments must contain exactly one
        // ongoing interval (the last one).
        for t in m.bug_info.iter() {
            let id = t.value(0).as_int().unwrap();
            let bug_ongoing = t.value(5).as_interval().unwrap().is_ongoing();
            let ongoing_assignments = m
                .bug_assignment
                .iter()
                .filter(|a| a.value(0).as_int() == Some(id))
                .filter(|a| a.value(2).as_interval().unwrap().is_ongoing())
                .count();
            assert_eq!(
                ongoing_assignments,
                usize::from(bug_ongoing),
                "bug {id}: ongoing bug iff one ongoing assignment"
            );
        }
    }

    #[test]
    fn tuple_sizes_near_table_v() {
        let m = small();
        // Uses the engine's layout model constants indirectly: Description
        // dominates BugInfo. We just check raw payload expectations here.
        let avg_desc: f64 = m
            .bug_info
            .iter()
            .map(|t| t.value(4).as_str().unwrap().len() as f64)
            .sum::<f64>()
            / m.bug_info.len() as f64;
        assert!((avg_desc - 840.0).abs() < 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&MozillaConfig::scaled(50, 3));
        let b = generate(&MozillaConfig::scaled(50, 3));
        assert_eq!(a.bug_info, b.bug_info);
        assert_eq!(a.bug_assignment, b.bug_assignment);
        assert_eq!(a.bug_severity, b.bug_severity);
    }

    #[test]
    fn severities_cover_major() {
        let m = small();
        let majors = m
            .bug_severity
            .iter()
            .filter(|t| t.value(1).as_str() == Some("major"))
            .count();
        let frac = majors as f64 / m.bug_severity.len() as f64;
        assert!((0.10..0.27).contains(&frac), "major fraction {frac}");
    }
}
