//! The closed loop shared by all workloads: repeated set-up, the
//! timed window, output checks, and the metrics of both kinds of run.

use crate::layers::{ratio, Layers};
use crate::procfs::{self, Sched};
use crate::stats::{self, Summary};
use crate::{probe, Args, Fallible};
use ongoing_engine::exec::rescache::{
    RESULT_CACHE_BYTES_METRIC, RESULT_CACHE_EVICTIONS_METRIC, RESULT_CACHE_HITS_METRIC,
    RESULT_CACHE_MISSES_METRIC,
};
use ongoing_engine::{Database, DurableStats, MetricsSnapshot, PlannerConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A window ends early once its measured time exceeds this many
/// `--seconds`.
const CAP_FACTOR: f64 = 3.0;
/// Host-speed probes run before and after each set-up.
const SETUP_PROBES: usize = 5;
/// Measured time between two host-speed probes.
const PROBE_EVERY: Duration = Duration::from_millis(20);
/// Probe duration that timings are scaled to: about the probe's median on
/// the 2-core x86-64 VM the benchmark was sized on.
const PROBE_REF_US: f64 = 575.0;

/// What an op measures, for the per-mode and commit metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A query evaluated in ongoing mode.
    Ongoing,
    /// A query instantiated at one reference time.
    AtRt,
    /// A prepared query answered from the result cache.
    CacheHit,
    /// One modification published through the catalog.
    Commit,
}

/// Class and kind of a generated op.
pub trait OpInfo {
    /// Op class (query shape or commit), for per-class statistics.
    fn class(&self) -> &'static str;
    /// What the op measures.
    fn kind(&self) -> Kind;
}

/// A benchmark workload: a database, a seeded op sequence, and the checks
/// of its outputs.
pub trait Workload: Sized {
    /// One generated op.
    type Op: OpInfo;
    /// Rounds per second of `--seconds`: a run executes a fixed number of
    /// rounds, sized so that it lasts about `--seconds` on a 2-core x86-64
    /// VM, and so replays the same op sequence every time.
    const ROUNDS_PER_SECOND: f64;
    /// Builds, loads and warms the database under `dir` (the timed set-up).
    fn setup(seed: u64, dir: &Path) -> Result<Self, String>;
    /// The next round of the op sequence. Rounds depend on the seed only.
    fn round(&mut self) -> Vec<Self::Op>;
    /// Executes one op; with `layers`, as separately timed layer calls.
    fn execute(&mut self, op: &Self::Op, layers: Option<&mut Layers>) -> Fallible;
    /// Checks what `op` just produced; runs with the clock stopped.
    fn verify(&mut self, op: &Self::Op) -> Fallible;
    /// The database under test.
    fn db(&self) -> &Database;
    /// Ends the run with a checkpoint and adds end-of-run layer readings.
    fn finish(&mut self, layers: &mut Layers) -> Fallible;
    /// Final output checks (may reopen the database); one entry per failure.
    fn check(&mut self) -> Vec<String>;
    /// One line on sizes and the flush policy.
    fn describe(&self) -> String;
}

/// The units of one round, `count` of each, spread evenly over the round
/// (smooth weighted round robin). The order is the same in every round
/// and for every seed, so each op class has the same neighbours in every
/// run; with a seeded shuffle the seed would decide, for example, how
/// many commits run right after a large scan, and with it their tail.
pub fn interleave<T: Copy>(units: &[(T, usize)]) -> Vec<T> {
    let total: usize = units.iter().map(|u| u.1).sum();
    let mut credit = vec![0i64; units.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        for (c, u) in credit.iter_mut().zip(units) {
            *c += u.1 as i64;
        }
        let best = (0..units.len())
            .max_by_key(|&i| (credit[i], std::cmp::Reverse(i)))
            .expect("at least one unit");
        credit[best] -= total as i64;
        out.push(units[best].0);
    }
    out
}

/// One completed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    class: &'static str,
    kind: Kind,
    us: f64,
    /// Measured seconds since the window opened, at the op's end.
    at: f64,
}

/// What one timed window measured.
#[derive(Debug, Default)]
pub struct Window {
    samples: Vec<Sample>,
    /// Host-speed probes: (ops completed before the probe, probe µs).
    probes: Vec<(usize, f64)>,
    attempted: u64,
    failures: Vec<String>,
    secs: f64,
    sched: Sched,
}

impl Window {
    /// Samples per host-speed slice: the window is cut into
    /// [`stats::SLICES`] slices by op index.
    fn per_slice(&self) -> usize {
        self.samples.len().div_ceil(stats::SLICES).max(1)
    }

    /// Median duration of all the window's host-speed probes.
    fn probe_us(&self) -> f64 {
        stats::median(&self.probes.iter().map(|p| p.1).collect::<Vec<_>>())
    }

    /// Host-speed factor of each slice: [`PROBE_REF_US`] over the median
    /// probe taken during the slice (the window's median without one).
    fn slice_factors(&self) -> Vec<f64> {
        let (n, per, all) = (self.samples.len(), self.per_slice(), self.probe_us());
        (0..n.div_ceil(per))
            .map(|j| {
                let range = j * per..(j + 1) * per;
                let mine: Vec<f64> = self
                    .probes
                    .iter()
                    .filter(|p| range.contains(&p.0))
                    .map(|p| p.1)
                    .collect();
                let m = if mine.is_empty() {
                    all
                } else {
                    stats::median(&mine)
                };
                if m > 0.0 {
                    PROBE_REF_US / m
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// Each op's latency at the reference host speed, in op order.
    fn scaled(&self) -> Vec<f64> {
        let (per, f) = (self.per_slice(), self.slice_factors());
        self.samples
            .iter()
            .enumerate()
            .map(|(i, s)| s.us * f[i / per])
            .collect()
    }

    /// Completed ops per second at the reference host speed: the median
    /// over the window's host-speed slices.
    fn ops_per_s(&self) -> f64 {
        let mut rates = Vec::new();
        let mut prev_end = 0.0;
        for (chunk, f) in self
            .samples
            .chunks(self.per_slice())
            .zip(self.slice_factors())
        {
            let end = chunk.last().map_or(prev_end, |s| s.at);
            rates.push(ratio(chunk.len() as f64, (end - prev_end) * f));
            prev_end = end;
        }
        stats::median(&rates)
    }

    /// `values` (one per sample) of the ops of `kind`, in op order.
    fn pick(&self, values: &[f64], kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .zip(values)
            .filter(|(s, _)| s.kind == kind)
            .map(|(_, v)| *v)
            .collect()
    }

    /// Mean latency at the reference host speed per (class, kind), so
    /// windows run at different times compare.
    fn class_means(&self) -> BTreeMap<(&'static str, Kind), (f64, usize)> {
        let mut m: BTreeMap<(&str, Kind), (f64, usize)> = BTreeMap::new();
        for (s, us) in self.samples.iter().zip(self.scaled()) {
            let e = m.entry((s.class, s.kind)).or_default();
            e.0 += us;
            e.1 += 1;
        }
        m.into_iter()
            .map(|(k, (sum, n))| (k, (sum / n as f64, n)))
            .collect()
    }
}

/// Runs `rounds` rounds of the op sequence, or as many as fit in `cap`
/// of measured time. Time spent in [`Workload::verify`] is excluded.
fn window<W: Workload>(
    w: &mut W,
    rounds: u64,
    cap: Duration,
    mut layers: Option<&mut Layers>,
) -> Window {
    let mut win = Window::default();
    let sched = Sched::now();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut last_probe = Duration::ZERO;
    for _ in 0..rounds {
        if start.elapsed() - paused > cap {
            println!("  window cut at {} s of measured time", cap.as_secs());
            break;
        }
        let ops = w.round();
        if win.samples.capacity() == 0 {
            // One allocation for the whole window: no growth of the sample
            // buffer lands in an op's time or in the peak resident set.
            win.samples.reserve_exact(rounds as usize * ops.len());
        }
        for op in ops {
            if start.elapsed() - paused >= last_probe + PROBE_EVERY {
                let p = Instant::now();
                win.probes.push((win.samples.len(), probe::run()));
                paused += p.elapsed();
                last_probe = start.elapsed() - paused;
            }
            win.attempted += 1;
            let t = Instant::now();
            let outcome = w.execute(&op, layers.as_deref_mut());
            let us = t.elapsed().as_secs_f64() * 1e6;
            let v = Instant::now();
            let outcome = outcome.and_then(|()| w.verify(&op));
            paused += v.elapsed();
            match outcome {
                Ok(()) => win.samples.push(Sample {
                    class: op.class(),
                    kind: op.kind(),
                    us,
                    at: (start.elapsed() - paused).as_secs_f64(),
                }),
                Err(e) => win.failures.push(e),
            }
        }
    }
    win.secs = (start.elapsed() - paused).as_secs_f64();
    win.sched = Sched::now().since(sched);
    win
}

/// The database directory of one run, removed when dropped.
struct DataDir(PathBuf);

impl DataDir {
    fn new(workload: &str) -> Result<DataDir, String> {
        let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
        let dir = cwd
            .join(".perfbench-data")
            .join(format!("{workload}-{}", std::process::id()));
        Ok(DataDir(dir))
    }

    /// Empties the directory for a fresh set-up.
    fn reset(&self) -> Result<&Path, String> {
        let _ = std::fs::remove_dir_all(&self.0);
        std::fs::create_dir_all(&self.0).map_err(|e| format!("{}: {e}", self.0.display()))?;
        Ok(&self.0)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Removes the shared parent only once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A metric of the final JSON line.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        // JSON has no NaN or infinity; a reading without a base is 0.
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Runs workload `W` as `args` asks and prints the result line. Returns
/// the process exit code.
pub fn main<W: Workload>(args: &Args) -> i32 {
    let parallelism = PlannerConfig::default().exec_context().parallelism;
    if parallelism != 1 {
        eprintln!("executor parallelism is {parallelism}, the benchmark requires 1");
        return 1;
    }
    match run::<W>(args) {
        Ok(result) => {
            println!("{result}");
            0
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            1
        }
    }
}

fn run<W: Workload>(args: &Args) -> Result<String, String> {
    let data = DataDir::new(&args.workload)?;
    let rounds = (args.seconds * W::ROUNDS_PER_SECOND).ceil().max(2.0) as u64;
    // A safety net for a much slower host or program: the run still ends.
    let cap = Duration::from_secs_f64(args.seconds * CAP_FACTOR);
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..setups {
        drop(workload.take());
        let dir = data.reset()?;
        let mut probes: Vec<f64> = (0..SETUP_PROBES).map(|_| probe::run()).collect();
        let start = Instant::now();
        workload = Some(W::setup(args.seed, dir)?);
        let secs = start.elapsed().as_secs_f64();
        probes.extend((0..SETUP_PROBES).map(|_| probe::run()));
        setup_s.push(secs * PROBE_REF_US / stats::median(&probes));
    }
    let mut w = workload.expect("at least one set-up");
    println!(
        "perfbench {} seed={} seconds={} trace={} parallelism=1",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("  {}", w.describe());

    let mut layers = Layers::default();
    let (plain, traced) = if args.trace {
        // Registry and durable-layer deltas come from the untraced half,
        // where ops take the path a client's ops take.
        let snap = w.db().metrics_snapshot();
        let durable = w.db().durable_stats().unwrap_or_default();
        let plain = window(&mut w, rounds / 2, cap / 2, None);
        window_deltas(&mut layers, &w, &snap, &durable, plain.attempted);
        let traced = window(&mut w, rounds / 2, cap / 2, Some(&mut layers));
        (plain, Some(traced))
    } else {
        (window(&mut w, rounds, cap, None), None)
    };
    let peak_rss = procfs::peak_rss_bytes();
    w.finish(&mut layers)?;
    let dir = data.0.clone();
    let disk = procfs::dir_bytes(&dir);
    let rows: usize = w
        .db()
        .table_names()
        .iter()
        .filter_map(|t| w.db().table(t).ok())
        .map(|t| t.data().len())
        .sum();
    let mut failures = plain.failures.clone();
    failures.extend(traced.iter().flat_map(|t| t.failures.iter().cloned()));
    failures.extend(w.check());
    drop(w);

    let last = traced.as_ref().unwrap_or(&plain);
    report(&plain, traced.as_ref(), &failures);
    let attempted = plain.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    let metrics = match &traced {
        None => end_to_end(&plain, stats::median(&setup_s), peak_rss, disk),
        Some(traced) => {
            layers.add("disk.bytes_per_row", ratio(disk as f64, rows as f64));
            let sched = Sched {
                cpu_ns: plain.sched.cpu_ns + traced.sched.cpu_ns,
                wait_ns: plain.sched.wait_ns + traced.sched.wait_ns,
            };
            per_layer(&layers, &plain, traced, sched)
        }
    };
    println!(
        "  window {:.2} s, {} ops, cpu {:.0} ms, run-queue wait {:.0} ms",
        last.secs,
        last.samples.len(),
        last.sched.cpu_ns as f64 / 1e6,
        last.sched.wait_ns as f64 / 1e6
    );
    Ok(result_json(
        failures.is_empty(),
        attempted,
        failures.len() as u64,
        &metrics,
    ))
}

/// Result-cache and chunk-cache deltas over a window of `ops` ops.
fn window_deltas<W: Workload>(
    layers: &mut Layers,
    w: &W,
    snap: &MetricsSnapshot,
    durable: &DurableStats,
    ops: u64,
) {
    let now = w.db().metrics_snapshot();
    let delta = |name: &str| now.value(name).saturating_sub(snap.value(name)) as f64;
    let (hits, misses) = (
        delta(RESULT_CACHE_HITS_METRIC),
        delta(RESULT_CACHE_MISSES_METRIC),
    );
    let ops = ops as f64;
    layers.add("rescache.hit_ratio", ratio(hits, hits + misses));
    layers.add(
        "rescache.bytes",
        now.value(RESULT_CACHE_BYTES_METRIC) as f64,
    );
    layers.add(
        "rescache.evictions",
        ratio(delta(RESULT_CACHE_EVICTIONS_METRIC), ops),
    );
    let d = w.db().durable_stats().unwrap_or_default();
    let (hits, misses) = (
        d.cache_hits.saturating_sub(durable.cache_hits) as f64,
        d.cache_misses.saturating_sub(durable.cache_misses) as f64,
    );
    layers.add("cache.hit_ratio", ratio(hits, hits + misses));
    layers.add("cache.misses_per_op", ratio(misses, ops));
    layers.add(
        "cache.evictions_per_op",
        ratio(
            d.cache_evictions.saturating_sub(durable.cache_evictions) as f64,
            ops,
        ),
    );
    layers.add("cache.peak_bytes", d.cache_peak_bytes as f64);
    layers.add(
        "storage.tuples_loaded_per_op",
        ratio(
            d.tuples_loaded.saturating_sub(durable.tuples_loaded) as f64,
            ops,
        ),
    );
}

/// Samples each slice must hold for its median, and for its p95 (which
/// then has ten samples beyond it).
const MIN_PER_SLICE_P50: usize = 100;
const MIN_PER_SLICE_P95: usize = 200;

/// The end-to-end metrics, in `BENCHMARK.json` order. Timings are at the
/// reference host speed, each the median over slices of the window of the
/// slice's percentile (see [`stats::sliced`]).
fn end_to_end(win: &Window, setup_s: f64, peak_rss: u64, disk: u64) -> Vec<Metric> {
    let scaled = win.scaled();
    let p50 = |v: &[f64]| stats::sliced(v, 50.0, MIN_PER_SLICE_P50);
    let p95 = |v: &[f64]| stats::sliced(v, 95.0, MIN_PER_SLICE_P95);
    let mode = |k: Kind| win.pick(&scaled, k);
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", win.ops_per_s(), "1/s"),
        metric("op_p50_us", p50(&scaled), "us"),
        metric("op_p95_us", p95(&scaled), "us"),
        metric("ongoing_p50_us", p50(&mode(Kind::Ongoing)), "us"),
        metric("at_rt_p50_us", p50(&mode(Kind::AtRt)), "us"),
        metric("peak_rss_mib", mib(peak_rss), "MiB"),
        metric("disk_mib", mib(disk), "MiB"),
    ]
}

/// Query shapes across all workloads, for `exec.break_even_rts.<shape>`.
pub const SHAPES: [&str; 7] = [
    "sel_ovlp",
    "sel_bef",
    "join_ovlp",
    "cjoin",
    "point_read",
    "scan",
    "scan_join",
];

/// Operators whose self time is reported as `exec.self_us.<operator>`.
pub const OPERATORS: [&str; 5] = ["SeqScan", "KeyScan", "Filter", "HashJoin", "Project"];

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
fn per_layer(layers: &Layers, plain: &Window, traced: &Window, sched: Sched) -> Vec<Metric> {
    let reads = (layers.count("exec.ongoing_us") + layers.count("exec.at_rt_us")) as f64;
    let commits = plain.pick(&plain.scaled(), Kind::Commit);
    let mut out = vec![
        metric(
            "commit.p50_us",
            stats::sliced(&commits, 50.0, MIN_PER_SLICE_P50),
            "us",
        ),
        metric(
            "commit.p95_us",
            stats::sliced(&commits, 95.0, MIN_PER_SLICE_P95),
            "us",
        ),
        metric("sql.parse_us", layers.mean("sql.parse_us"), "us"),
        metric("sql.lower_us", layers.mean("sql.lower_us"), "us"),
        metric("plan.compile_us", layers.mean("plan.compile_us"), "us"),
        metric("exec.ongoing_us", layers.mean("exec.ongoing_us"), "us"),
        metric("exec.at_rt_us", layers.mean("exec.at_rt_us"), "us"),
        metric(
            "exec.ongoing_ns_per_work",
            ratio(
                layers.sum("exec.ongoing_ns"),
                layers.sum("exec.ongoing_work"),
            ),
            "ns",
        ),
        metric(
            "exec.at_rt_ns_per_work",
            ratio(layers.sum("exec.at_rt_ns"), layers.sum("exec.at_rt_work")),
            "ns",
        ),
        metric(
            "exec.tuples_scanned",
            layers.mean("exec.tuples_scanned"),
            "1/op",
        ),
        metric(
            "exec.pairs_compared",
            layers.mean("exec.pairs_compared"),
            "1/op",
        ),
        metric(
            "exec.intervals_merged",
            layers.mean("exec.intervals_merged"),
            "1/op",
        ),
    ];
    for op in OPERATORS {
        let name = format!("exec.self_us.{op}");
        out.push(metric(&name, ratio(layers.sum(&name), reads), "us"));
    }
    for shape in SHAPES {
        let ongoing = layers.mean(&format!("exec.ongoing_us.{shape}"));
        let at_rt = layers.mean(&format!("exec.at_rt_us.{shape}"));
        let rts = if ongoing > 0.0 && at_rt > 0.0 {
            ongoing_bench::break_even_reevaluations(
                Duration::from_secs_f64(ongoing / 1e6),
                Duration::from_secs_f64(at_rt / 1e6),
            ) as f64
        } else {
            0.0
        };
        out.push(metric(&format!("exec.break_even_rts.{shape}"), rts, "rts"));
    }
    let (rt_set_ns, le2) = layers.rt_replay();
    let mean = |name: &str, unit| metric(name, layers.mean(name), unit);
    out.extend([
        mean("rescache.hit_ratio", "ratio"),
        mean("rescache.hit_us", "us"),
        mean("rescache.bytes", "bytes"),
        mean("rescache.evictions", "1/op"),
        metric("core.rt_set_ns", rt_set_ns, "ns"),
        metric("core.rt_le2_share", le2, "ratio"),
        mean("modify.edit_us", "us"),
        mean("catalog.publish_us", "us"),
        mean("catalog.reanalyze_commit_us", "us"),
        mean("store.qual_work_per_commit", "1/op"),
        mean("store.write_work_per_commit", "1/op"),
        mean("store.chunks", "count"),
        mean("store.overlay_rows", "count"),
        mean("wal.bytes_per_commit", "bytes"),
        metric(
            "storage.checkpoints",
            layers.sum("storage.checkpoints"),
            "count",
        ),
        mean("storage.checkpoint_commit_us", "us"),
        mean("disk.bytes_per_row", "bytes"),
        mean("cache.hit_ratio", "ratio"),
        mean("cache.misses_per_op", "1/op"),
        mean("cache.evictions_per_op", "1/op"),
        mean("cache.peak_bytes", "bytes"),
        mean("storage.tuples_loaded_per_op", "1/op"),
        mean("storage.open_ms", "ms"),
        metric("host.probe_us", traced.probe_us(), "us"),
        metric("proc.cpu_ms", sched.cpu_ns as f64 / 1e6, "ms"),
        metric("proc.runq_wait_ms", sched.wait_ns as f64 / 1e6, "ms"),
        metric(
            "rescache.miss_us",
            gap_us(plain, traced, |k| k == Kind::Ongoing),
            "us",
        ),
        metric("trace.overhead_pct", overhead_pct(plain, traced), "%"),
    ]);
    out
}

/// Extra time of the traced ops over the same op classes untraced,
/// `Σ n_traced(c)·mean_traced(c) / Σ n_traced(c)·mean_plain(c) − 1`, over
/// the classes whose traced op makes the same calls as the untraced one.
/// Traced ongoing reads call the layers directly and so skip the
/// result-cache seam; they are left out here and measured by [`gap_us`].
fn overhead_pct(plain: &Window, traced: &Window) -> f64 {
    let (t, p) = weighted_means(plain, traced, |k| k != Kind::Ongoing);
    100.0 * (ratio(t, p) - 1.0)
}

/// Mean untraced minus mean traced latency of the classes `pick` selects
/// (weighted by traced counts).
fn gap_us(plain: &Window, traced: &Window, pick: impl Fn(Kind) -> bool) -> f64 {
    let n: usize = traced
        .class_means()
        .iter()
        .filter(|((_, k), _)| pick(*k))
        .map(|(_, (_, n))| n)
        .sum();
    let (t, p) = weighted_means(plain, traced, pick);
    ratio(p - t, n as f64)
}

/// `(Σ n_t(c)·mean_t(c), Σ n_t(c)·mean_p(c))` over classes in both windows.
fn weighted_means(plain: &Window, traced: &Window, pick: impl Fn(Kind) -> bool) -> (f64, f64) {
    let base = plain.class_means();
    let (mut t, mut p) = (0.0, 0.0);
    for (key, (mean, n)) in traced.class_means() {
        if let (true, Some((plain_mean, _))) = (pick(key.1), base.get(&key)) {
            t += mean * n as f64;
            p += plain_mean * n as f64;
        }
    }
    (t, p)
}

/// Human-readable per-class and per-metric sample counts (stdout lines
/// before the result line).
fn report(plain: &Window, traced: Option<&Window>, failures: &[String]) {
    for (label, win) in [("untraced", Some(plain)), ("traced", traced)] {
        let Some(win) = win else { continue };
        println!(
            "  {label}: {} ops in {:.2} s; host probe median {:.1} us (timings in the \
             result are scaled to {PROBE_REF_US} us); raw latencies:",
            win.samples.len(),
            win.secs,
            win.probe_us()
        );
        let raw: Vec<f64> = win.samples.iter().map(|s| s.us).collect();
        for (kind, name) in [
            (None, "op"),
            (Some(Kind::Ongoing), "ongoing"),
            (Some(Kind::AtRt), "at_rt"),
            (Some(Kind::CacheHit), "cache_hit"),
            (Some(Kind::Commit), "commit"),
        ] {
            let v = kind.map_or_else(|| raw.clone(), |k| win.pick(&raw, k));
            let s = Summary::of(&v);
            let tail =
                stats::highest_supported(s.n).map_or("none".to_string(), |p| format!("p{p}"));
            println!(
                "    {name:<9} n={:<6} p50={:>10.1} us  p95={:>10.1} us  highest supported: {tail}",
                s.n, s.p50, s.p95
            );
        }
        let classes = stats::by_class(win.samples.iter().map(|s| ((s.class, s.kind), s.us)));
        for ((class, kind), s) in classes {
            println!(
                "    {class:<10} {kind:<8?} n={:<6} p50={:>10.1} us  p95={:>10.1} us",
                s.n, s.p50, s.p95
            );
        }
    }
    for f in failures.iter().take(10) {
        println!("  FAILED: {f}");
    }
}

/// Names of every metric either kind of run emits.
#[cfg(test)]
pub fn metric_names() -> Vec<String> {
    let w = Window::default();
    end_to_end(&w, 0.0, 0, 0)
        .into_iter()
        .chain(per_layer(&Layers::default(), &w, &w, Sched::default()))
        .map(|m| m.name)
        .collect()
}

/// The final result line.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            12,
            0,
            &[metric("setup_s", 0.5, "s"), metric("bad", f64::NAN, "us")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"bad\": {\"value\": 0.0, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn interleave_spreads_each_unit_evenly() {
        let order = interleave(&[('c', 8), ('d', 4), ('q', 2)]);
        assert_eq!(order.len(), 14);
        for (u, n) in [('c', 8), ('d', 4), ('q', 2)] {
            assert_eq!(order.iter().filter(|&&x| x == u).count(), n);
        }
        assert_eq!(order, interleave(&[('c', 8), ('d', 4), ('q', 2)]));
        // The two `q`s sit half a round apart.
        let q: Vec<usize> = (0..14).filter(|&i| order[i] == 'q').collect();
        assert_eq!(q[1] - q[0], 7);
        assert_eq!(interleave::<char>(&[]), Vec::<char>::new());
    }

    #[test]
    fn overhead_compares_like_classes() {
        let win = |us: f64| Window {
            samples: vec![
                Sample {
                    class: "a",
                    kind: Kind::Ongoing,
                    us,
                    at: 0.0,
                },
                Sample {
                    class: "b",
                    kind: Kind::Commit,
                    us: 10.0,
                    at: 0.0,
                },
            ],
            ..Window::default()
        };
        // Only the commit class counts: its mean is unchanged.
        let pct = overhead_pct(&win(100.0), &win(111.0));
        assert!(pct.abs() < 1e-9, "{pct}");
        // The ongoing class is 11 µs slower traced.
        let gap = gap_us(&win(100.0), &win(111.0), |k| k == Kind::Ongoing);
        assert!((gap + 11.0).abs() < 1e-9, "{gap}");
    }
}
