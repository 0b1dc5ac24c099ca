//! Read ops in the two evaluation modes, through the public entry points
//! a client uses. Untraced, an ongoing read is one `sql::query` call (the
//! result-cache seam) and an instantiated read is `sql::plan_query` →
//! `compile` → `execute_at_with_stats`. Traced, both are split into the
//! same layer calls, each timed from the benchmark.

use crate::layers::Layers;
use ongoing_core::TimePoint;
use ongoing_engine::plan::optimizer::compile;
use ongoing_engine::sql::{self, parser};
use ongoing_engine::{Database, ExecStats, PhysicalPlan, PlannerConfig, TraceCollector};
use ongoing_relation::{FixedRelation, OngoingRelation};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// The result of one read op.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// An ongoing result, valid at every reference time.
    Ongoing(OngoingRelation),
    /// A result instantiated at one reference time.
    AtRt(FixedRelation),
}

/// Runs `text` in ongoing mode.
pub fn ongoing(
    db: &Database,
    text: &str,
    shape: &str,
    layers: Option<&mut Layers>,
) -> Result<OngoingRelation, String> {
    let Some(layers) = layers else {
        return sql::query(db, text).map_err(|e| format!("{text}: {e}"));
    };
    let (phys, cfg) = plan_traced(db, text, layers)?;
    let tracer = Arc::new(TraceCollector::new());
    let ctx = cfg.exec_context().with_trace(Arc::clone(&tracer));
    let (out, us) = layers.time("exec.ongoing_us", || phys.execute_with_stats(&ctx));
    let (rel, stats) = out.map_err(|e| format!("{text}: {e}"))?;
    finish_traced(layers, "ongoing", shape, us, &stats, &tracer);
    layers.keep_rt_sets(rel.iter().map(|t| t.rt()));
    Ok(rel)
}

/// Runs `text` instantiated at `rt` (the Clifford baseline).
pub fn at_rt(
    db: &Database,
    text: &str,
    rt: TimePoint,
    shape: &str,
    layers: Option<&mut Layers>,
) -> Result<FixedRelation, String> {
    let err = |e: ongoing_engine::EngineError| format!("{text} at {rt}: {e}");
    let Some(layers) = layers else {
        let cfg = PlannerConfig::default();
        let plan = sql::plan_query(db, text).map_err(err)?;
        let phys = compile(db, &plan, &cfg).map_err(err)?;
        return Ok(phys
            .execute_at_with_stats(rt, &cfg.exec_context())
            .map_err(err)?
            .0);
    };
    let (phys, cfg) = plan_traced(db, text, layers)?;
    let tracer = Arc::new(TraceCollector::new());
    let ctx = cfg.exec_context().with_trace(Arc::clone(&tracer));
    let (out, us) = layers.time("exec.at_rt_us", || phys.execute_at_with_stats(rt, &ctx));
    let (rel, stats) = out.map_err(err)?;
    finish_traced(layers, "at_rt", shape, us, &stats, &tracer);
    Ok(rel)
}

/// Parse, lower and compile, each timed: `sql.lower_us` is
/// `sql::plan_query` (which parses again) minus the parse alone.
fn plan_traced(
    db: &Database,
    text: &str,
    layers: &mut Layers,
) -> Result<(PhysicalPlan, PlannerConfig), String> {
    let (parsed, parse_us) = layers.time("sql.parse_us", || parser::parse(text));
    parsed.map_err(|e| format!("{text}: {e}"))?;
    let start = Instant::now();
    let plan = sql::plan_query(db, text).map_err(|e| format!("{text}: {e}"))?;
    let plan_us = start.elapsed().as_secs_f64() * 1e6;
    layers.add("sql.lower_us", (plan_us - parse_us).max(0.0));
    let cfg = PlannerConfig::default();
    let (phys, _) = layers.time("plan.compile_us", || compile(db, &plan, &cfg));
    Ok((phys.map_err(|e| format!("{text}: {e}"))?, cfg))
}

fn finish_traced(
    layers: &mut Layers,
    mode: &str,
    shape: &str,
    us: f64,
    stats: &ExecStats,
    tracer: &TraceCollector,
) {
    layers.add(&format!("exec.{mode}_us.{shape}"), us);
    layers.add(&format!("exec.{mode}_ns"), us * 1e3);
    layers.add(&format!("exec.{mode}_work"), stats.total_work() as f64);
    layers.add("exec.tuples_scanned", stats.tuples_scanned as f64);
    layers.add("exec.pairs_compared", stats.pairs_compared as f64);
    layers.add("exec.intervals_merged", stats.intervals_merged as f64);
    for root in tracer.finish() {
        layers.add_spans(&root);
    }
}

/// Keeps generated query texts unique within a run, so no read op can be
/// answered from the result cache by an earlier op's entry.
#[derive(Debug, Default)]
pub struct Fresh {
    used: HashSet<String>,
}

impl Fresh {
    /// Draws texts from `gen` until one is new (at most 100 tries).
    pub fn text(&mut self, mut gen: impl FnMut() -> String) -> String {
        let mut text = gen();
        for _ in 0..100 {
            if !self.used.contains(&text) {
                break;
            }
            text = gen();
        }
        self.used.insert(text.clone());
        text
    }
}
