//! What the workloads share: the service, timed reads checked against
//! references, the accounting of attempted and failed operations, and
//! the traced per-layer attribution.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use morsel_core::{ExecEnv, QueryProfile};
use morsel_numa::Topology;
use morsel_planner::Planner;
use morsel_service::{
    CacheDisposition, CacheStats, Error, Execution, QueryService, ServiceConfig, Session,
};
use morsel_sql::Binder;
use morsel_storage::{Catalog, Relation};

use crate::check::{check, Expected};
use crate::queries::{Query, Schema as QuerySchema};
use crate::stats::{geomean, median, quantile};

/// Worker threads of the query service. One, not the host's two cores:
/// with two, the pipeline-finish race in `JobExec::release`
/// (`crates/core/src/job.rs`) now and then runs a pipeline's `finish`
/// while the other worker still consumes a morsel, which panics or
/// loses rows at random (see the README's "Known faults"). A failure
/// that strikes at random cannot be counted the same way in every run,
/// so the benchmark measures what it can check: one worker, on which
/// the race cannot happen. Raise this once the race is mended.
pub const WORKERS: usize = 1;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUPS: usize = 3;

/// Cold passes after each set-up (all but the first on fresh copies of
/// the relations); `cold_pass_ms` sums each fixture's median latency
/// over the quieter half of its cold reads.
pub const COLD_PASSES_PER_SETUP: usize = 4;

pub fn topology() -> Topology {
    Topology::laptop()
}

pub fn start_service() -> QueryService {
    QueryService::start(ExecEnv::new(topology()), ServiceConfig::new(WORKERS))
}

pub fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A scratch directory inside the working directory, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn new(tag: &str) -> RunDir {
        let dir = Path::new(".bench_run").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create run directory");
        RunDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A copy of `rel` that shares nothing cached with it: its statistics
/// are built again on first touch, as after a fresh load.
pub fn fresh(rel: &Relation) -> Arc<Relation> {
    Arc::new(Relation::from_partitions(
        rel.schema().clone(),
        rel.partitions().to_vec(),
    ))
}

pub fn fresh_catalog(catalog: &Catalog) -> Catalog {
    let mut out = Catalog::new();
    for (name, rel) in catalog.iter() {
        out.add(name, fresh(rel));
    }
    out
}

/// The catalog-mode sessions of olap: one per schema (TPC-H and SSB
/// share table names), each with the catalog it plans against.
pub struct Sessions {
    pub tpch: (Session, Catalog),
    pub ssb: (Session, Catalog),
}

impl Sessions {
    pub fn new(tpch: Catalog, ssb: Catalog) -> Sessions {
        let build = |c: &Catalog| {
            Session::builder()
                .catalog(c.clone())
                .topology(&topology())
                .build()
        };
        Sessions {
            tpch: (build(&tpch), tpch),
            ssb: (build(&ssb), ssb),
        }
    }

    /// New sessions over fresh copies of the relations (cold again).
    pub fn fresh(&self) -> Sessions {
        Sessions::new(fresh_catalog(&self.tpch.1), fresh_catalog(&self.ssb.1))
    }

    pub fn pick(&self, q: &Query) -> &(Session, Catalog) {
        match q.schema() {
            QuerySchema::Tpch => &self.tpch,
            QuerySchema::Ssb => &self.ssb,
        }
    }

    pub fn cache(&self) -> CacheStats {
        cache_sum(&[&self.tpch.0, &self.ssb.0])
    }

    /// Attribute one completed read of client `tid` to the layers.
    #[allow(clippy::too_many_arguments)]
    pub fn attribute(
        &self,
        layers: &Layers,
        stats_seen: &Mutex<std::collections::HashSet<String>>,
        tid: usize,
        q: &Query,
        sql: &str,
        r: &Read,
        start: Instant,
    ) {
        if let Ok(exec) = &r.result {
            let (session, catalog) = self.pick(q);
            Attribution {
                layers,
                planner: session.planner(),
                stats_seen,
                scope: if q.schema() == QuerySchema::Tpch {
                    "tpch"
                } else {
                    "ssb"
                },
                snapshot_ns: None,
            }
            .read(
                tid,
                q.name(),
                sql,
                &q.tables(),
                catalog,
                start,
                r.latency_ms,
                exec,
            );
        }
    }
}

/// `(steal, total)` CPU jiffies of this guest from `/proc/stat`, when
/// readable: the time the hypervisor gave to other guests.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time stolen between two readings (0 when unknown).
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// CPU time (ms) that the threads of this process have run, from
/// `/proc/self/task/*/schedstat`, when readable. The guest kernel's
/// run times leave out the time the hypervisor gave to other guests.
pub fn process_cpu_ms() -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        // A thread may end between the listing and the read.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(ns as f64 / 1e6)
}

/// A stopwatch that also reads the process's CPU time.
pub struct Watch {
    start: Instant,
    cpu: Option<f64>,
}

impl Watch {
    pub fn start() -> Watch {
        let cpu = process_cpu_ms();
        Watch {
            start: Instant::now(),
            cpu,
        }
    }

    /// The time elapsed (ms), and how much of it the process spent off
    /// the CPU (ms; 0 where unknown).
    pub fn stop(&self) -> (f64, f64) {
        let elapsed = ms(self.start);
        let off_cpu = match (self.cpu, process_cpu_ms()) {
            (Some(before), Some(after)) => elapsed - (after - before),
            _ => 0.0,
        };
        (elapsed, off_cpu)
    }
}

/// Run `f` and time it: its result, its latency (ms), and how much of
/// the latency the process spent off the CPU (ms).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let watch = Watch::start();
    let out = f();
    let (latency, off_cpu) = watch.stop();
    (out, latency, off_cpu)
}

/// The median of the quieter half of `samples` (value, off-CPU ms):
/// a shared host only ever adds time, so the samples during which the
/// process waited least for a CPU estimate the engine's own speed.
pub fn quiet_median(samples: &[(f64, f64)]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.1.total_cmp(&b.1));
    s.truncate(s.len().div_ceil(2));
    median(&s.iter().map(|x| x.0).collect::<Vec<_>>())
}

/// What an operation of a timed phase was.
#[derive(Clone, Copy, PartialEq)]
pub enum Class {
    /// A read that completed.
    Read,
    /// An acknowledged commit.
    Commit,
    /// Anything else: a merge, a failed operation.
    Other,
}

struct Op {
    kind: String,
    class: Class,
    latency_ms: f64,
    off_cpu_ms: f64,
}

/// The operations of a timed phase. Each figure takes, of every kind
/// of operation (a fixture, a DML step, a merge), the quieter half:
/// the operations during which the process spent the least time off
/// the CPU. Taking the same share of every kind keeps the make-up of
/// the pool fixed. A change that slows every operation of a kind still
/// moves the figures; a stretch in which the host ran other guests or
/// processes does not.
#[derive(Default)]
pub struct Ops {
    ops: Vec<Op>,
}

impl Ops {
    pub fn record(&mut self, kind: &str, class: Class, latency_ms: f64, off_cpu_ms: f64) {
        self.ops.push(Op {
            kind: kind.to_string(),
            class,
            latency_ms,
            off_cpu_ms,
        });
    }

    /// A timed read: completed or not, by its result.
    pub fn read(&mut self, kind: &str, r: &Read) {
        let class = if r.result.is_ok() {
            Class::Read
        } else {
            Class::Other
        };
        self.record(kind, class, r.latency_ms, r.off_cpu_ms);
    }

    pub fn extend(&mut self, other: Ops) {
        self.ops.extend(other.ops);
    }

    /// Engine time (ms): the sum of the operations' latencies.
    pub fn busy_ms(&self) -> f64 {
        self.ops.iter().map(|o| o.latency_ms).sum()
    }

    pub fn reads(&self) -> usize {
        self.count(Class::Read)
    }

    fn count(&self, class: Class) -> usize {
        self.ops.iter().filter(|o| o.class == class).count()
    }

    /// Each kind's operation count and the quieter half of them.
    fn quiet(&self) -> Vec<(usize, Vec<&Op>)> {
        let mut by_kind: std::collections::BTreeMap<&str, Vec<&Op>> = Default::default();
        for o in &self.ops {
            by_kind.entry(&o.kind).or_default().push(o);
        }
        by_kind
            .into_values()
            .map(|mut ops| {
                let n = ops.len();
                ops.sort_by(|a, b| a.off_cpu_ms.total_cmp(&b.off_cpu_ms));
                ops.truncate(n.div_ceil(2));
                (n, ops)
            })
            .collect()
    }

    fn quiet_latencies(&self, class: Class) -> Vec<f64> {
        self.quiet()
            .into_iter()
            .flat_map(|(_, q)| q)
            .filter(|o| o.class == class)
            .map(|o| o.latency_ms)
            .collect()
    }

    pub fn p50(&self) -> f64 {
        median(&self.quiet_latencies(Class::Read))
    }

    pub fn p95(&self) -> f64 {
        quantile(&self.quiet_latencies(Class::Read), 0.95)
    }

    /// Operations of `class` per second of engine time, each
    /// operation's time taken as the mean of its kind's quiet half.
    fn rate(&self, class: Class) -> f64 {
        let time: f64 = self
            .quiet()
            .iter()
            .map(|(n, q)| *n as f64 * q.iter().map(|o| o.latency_ms).sum::<f64>() / q.len() as f64)
            .sum();
        self.count(class) as f64 * 1e3 / time
    }

    pub fn qps(&self) -> f64 {
        self.rate(Class::Read)
    }

    pub fn commits_per_s(&self) -> f64 {
        self.rate(Class::Commit)
    }

    pub fn commit_p50(&self) -> f64 {
        median(&self.quiet_latencies(Class::Commit))
    }

    /// Geometric mean over fixtures of each one's median quiet
    /// latency.
    pub fn geomean(&self) -> f64 {
        let medians: Vec<f64> = self
            .quiet()
            .iter()
            .map(|(_, q)| {
                let reads = q.iter().filter(|o| o.class == Class::Read);
                reads.map(|o| o.latency_ms).collect::<Vec<_>>()
            })
            .filter(|reads| !reads.is_empty())
            .map(|reads| median(&reads))
            .collect();
        geomean(&medians)
    }

    /// One pass over every kind: the sum of each kind's median quiet
    /// latency (the cold passes' figure).
    pub fn pass_ms(&self) -> f64 {
        self.quiet()
            .iter()
            .map(|(_, q)| median(&q.iter().map(|o| o.latency_ms).collect::<Vec<_>>()))
            .sum()
    }
}

// ----------------------------------------------------------- accounting

/// Attempted and failed operations.
///
/// Every operation counts in `attempted`. A failure that a named fault
/// predicts (one that strikes every time its condition holds, so that
/// every run fails the same share) counts in `failed`. A failure that
/// no named fault predicts is never retried and never left out: it is
/// reported with its error and, like a wrong result, makes the run
/// incorrect.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub unpredicted: Vec<String>,
    pub mismatches: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// A failed operation; `predicted` says whether a named fault
    /// predicts it.
    pub fn fail(&mut self, what: &str, err: &dyn std::fmt::Display, predicted: bool) {
        self.attempted += 1;
        if predicted {
            self.failed += 1;
        } else {
            eprintln!("UNPREDICTED FAILURE {what}: {err}");
            self.unpredicted.push(format!("{what}: {err}"));
        }
    }

    pub fn mismatch(&mut self, what: &str, why: String) {
        eprintln!("MISMATCH {what}: {why}");
        self.mismatches.push(format!("{what}: {why}"));
    }

    /// Whether every completed operation matched and every failure was
    /// predicted.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.unpredicted.is_empty()
    }

    /// Count from here on: `attempted`/`failed` cover the timed phase's
    /// rounds only (set-up and cold passes differ in make-up).
    /// Mismatches and unpredicted failures seen so far stay reported.
    pub fn start_counting(&mut self) {
        self.attempted = 0;
        self.failed = 0;
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.unpredicted.extend(other.unpredicted);
        self.mismatches.extend(other.mismatches);
    }
}

/// One timed `Session::execute` of a read.
pub struct Read {
    pub latency_ms: f64,
    /// The part of the latency the process spent off the CPU.
    pub off_cpu_ms: f64,
    pub result: Result<Execution, Error>,
}

pub fn read(session: &Session, service: &QueryService, name: &str, sql: &str) -> Read {
    let (result, latency_ms, off_cpu_ms) = timed(|| session.execute(service, name, sql));
    Read {
        latency_ms,
        off_cpu_ms,
        result,
    }
}

/// Query names an injected `MORSEL_FAULT_PLAN` targets: their failures
/// are deterministic, so they count as predicted.
pub fn fault_plan_targets() -> Vec<String> {
    match morsel_core::FaultPlan::from_env() {
        Ok(Some(plan)) => plan_targets(&plan),
        _ => Vec::new(),
    }
}

pub fn plan_targets(plan: &morsel_core::FaultPlan) -> Vec<String> {
    plan.faults
        .iter()
        .filter_map(|f| match f {
            morsel_core::Fault::PanicAt { query, .. }
            | morsel_core::Fault::FailAlloc { query, .. } => Some(query.clone()),
            _ => None,
        })
        .collect()
}

/// Check a completed read against its reference. Returns whether the
/// read completed; `predicted` says whether a named fault predicts its
/// failure. On a mismatch, `rerun` (when given) executes the same text
/// once more, uncounted, to tell a transient wrong result from a
/// persistent one in the report.
pub fn settle(
    tally: &mut Tally,
    what: &str,
    r: &Read,
    want: &Expected,
    predicted: bool,
    rerun: Option<&dyn Fn() -> Read>,
) -> bool {
    match &r.result {
        Ok(exec) => {
            tally.ok();
            match exec.rows() {
                Some(rows) => {
                    if let Err(why) = check(want, rows) {
                        let again = rerun.map(|f| match f().result {
                            Ok(e) if e.rows().is_some_and(|b| check(want, b).is_ok()) => {
                                "an immediate re-run matches"
                            }
                            Ok(_) => "an immediate re-run differs too",
                            Err(_) => "an immediate re-run failed",
                        });
                        tally.mismatch(what, format!("{why} ({})", again.unwrap_or("not re-run")));
                    }
                }
                None => tally.mismatch(what, "completed without rows".into()),
            }
            true
        }
        Err(e) => {
            tally.fail(what, e, predicted);
            false
        }
    }
}

// ------------------------------------------------------------ layers

/// Per-layer samples and spans of a traced run.
pub struct Layers {
    t0: Instant,
    samples: Mutex<HashMap<&'static str, Vec<f64>>>,
    spans: Mutex<Vec<String>>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            t0: Instant::now(),
            samples: Mutex::new(HashMap::new()),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Layers {
    pub fn sample(&self, key: &'static str, v: f64) {
        self.samples.lock().unwrap().entry(key).or_default().push(v);
    }

    /// Forget the execution profiles sampled so far (the `exec.*` and
    /// `core.*` keys), so that their per-round figures cover the timed
    /// phase's traced rounds and not the cold passes before them.
    pub fn forget_profiles(&self) {
        self.samples
            .lock()
            .unwrap()
            .retain(|k, _| !k.starts_with("exec.") && !k.starts_with("core."));
    }

    pub fn values(&self, key: &str) -> Vec<f64> {
        self.samples
            .lock()
            .unwrap()
            .get(key)
            .cloned()
            .unwrap_or_default()
    }

    pub fn median(&self, key: &str) -> f64 {
        median(&self.values(key))
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.values(key).iter().sum()
    }

    /// Record a span `[start, start + dur_ns)` on thread `tid`.
    pub fn span(&self, layer: &str, name: &str, tid: usize, start: Instant, dur_ns: u64) {
        let ts = start.saturating_duration_since(self.t0).as_nanos() as f64 / 1e3;
        self.spans.lock().unwrap().push(format!(
            "{{\"name\":{:?},\"cat\":{:?},\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid}}}",
            name,
            layer,
            dur_ns as f64 / 1e3
        ));
    }

    /// Time `f` as a span of `layer` and a sample under `key` (µs).
    pub fn time_us<R>(
        &self,
        key: &'static str,
        name: &str,
        tid: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.span(key, name, tid, t, ns);
        self.sample(key, ns as f64 / 1e3);
        out
    }

    /// Write the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().unwrap();
        let body = format!("{{\"traceEvents\":[\n{}\n]}}\n", spans.join(",\n"));
        std::fs::write(path, body)?;
        Ok(spans.len())
    }
}

/// What the traced run needs to re-run a read's inner layers on the
/// same inputs: the catalog the session planned against and its
/// planner.
pub struct Attribution<'a> {
    pub layers: &'a Layers,
    pub planner: &'a Planner,
    /// `schema.table` names whose first-touch statistics were timed on
    /// the current catalog version.
    pub stats_seen: &'a Mutex<std::collections::HashSet<String>>,
    /// Which schema's catalog the read planned against.
    pub scope: &'a str,
    /// Database mode: the session parsed the statement and refreshed
    /// its snapshot (`snapshot_ns`) before its planning clock started.
    pub snapshot_ns: Option<f64>,
}

impl Attribution<'_> {
    /// Time the layers of one completed read on `catalog` and record the
    /// remainder: parse every time, bind and plan when the session's
    /// plan cache missed, first-touch statistics of each relation
    /// table the query reads, once per catalog version.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &self,
        tid: usize,
        name: &str,
        sql: &str,
        tables: &[String],
        catalog: &Catalog,
        start: Instant,
        latency_ms: f64,
        exec: &Execution,
    ) {
        let l = self.layers;
        let Some(q) = exec.query() else { return };
        l.span("bench.read", name, tid, start, (latency_ms * 1e6) as u64);
        l.span("service.plan", name, tid, start, q.plan_ns);
        let exec_start = start
            + std::time::Duration::from_nanos(
                ((latency_ms * 1e6) as u64).saturating_sub(q.report.latency_ns),
            );
        l.span("service.exec", name, tid, exec_start, q.report.latency_ns);
        let select = l.time_us("sql.parse_us", name, tid, || morsel_sql::parse(sql));
        let parse_us = *l.values("sql.parse_us").last().unwrap();
        let mut inner_us = parse_us;
        let mut stats_ms = 0.0;
        for t in tables {
            let Some(rel) = catalog.get(t) else { continue };
            if self
                .stats_seen
                .lock()
                .unwrap()
                .insert(format!("{}.{t}", self.scope))
            {
                // A fresh instance sharing the data: its statistics are
                // built from scratch, as the session's were.
                let fresh =
                    Relation::from_partitions(rel.schema().clone(), rel.partitions().to_vec());
                let t0 = Instant::now();
                let _ = fresh.stats();
                let ns = t0.elapsed().as_nanos() as u64;
                l.span("storage.stats_build", t, tid, t0, ns);
                stats_ms += ns as f64 / 1e6;
            }
            // Bind and plan below must not pay for statistics again
            // (database mode plans on its own fresh snapshot).
            let _ = rel.stats();
        }
        if stats_ms > 0.0 {
            l.sample("stats_ms_per_read", stats_ms);
        }
        if q.plan_cache == CacheDisposition::Miss {
            if let Ok(select) = select {
                let bound = l.time_us("sql.bind_us", name, tid, || {
                    Binder::new(catalog).bind(&select)
                });
                inner_us += *l.values("sql.bind_us").last().unwrap();
                if let Ok(logical) = bound {
                    l.time_us("planner.plan_us", name, tid, || {
                        self.planner.plan_handle(&logical)
                    });
                    inner_us += *l.values("planner.plan_us").last().unwrap();
                }
            }
        }
        let plan_ms = q.plan_ns as f64 / 1e6;
        l.sample("service.plan_ms", plan_ms);
        l.sample(
            "service.plan_self_ms",
            (plan_ms - inner_us / 1e3 - stats_ms).max(0.0),
        );
        l.sample("service.exec_ms", q.report.latency_ns as f64 / 1e6);
        let outside_ms = self
            .snapshot_ns
            .map_or(0.0, |snap| (snap + parse_us * 1e3) / 1e6);
        l.sample(
            "bench.unattributed_ms",
            latency_ms - plan_ms - q.report.latency_ns as f64 / 1e6 - outside_ms,
        );
        l.sample("bench.read_ms", latency_ms);
        if let Some(p) = &q.report.profile {
            record_profile(l, p, q.report.latency_ns);
        }
    }
}

/// Operator wall time by kind, rows and morsels of one execution.
pub fn record_profile(l: &Layers, p: &QueryProfile, latency_ns: u64) {
    let mut by_kind = [0u64; 4];
    let (mut rows, mut morsels, mut wall) = (0u64, 0u64, 0u64);
    for op in &p.ops {
        let k = if op.label.starts_with("join") {
            1
        } else if op.label.starts_with("agg") {
            2
        } else if op.label.starts_with("sort") || op.label.starts_with("top") {
            3
        } else {
            0
        };
        by_kind[k] += op.wall_ns;
        rows += op.rows_out;
        morsels += op.morsels;
        wall += op.wall_ns;
    }
    for (k, key) in [
        "exec.scan_ms",
        "exec.join_ms",
        "exec.agg_ms",
        "exec.sort_ms",
    ]
    .iter()
    .enumerate()
    {
        l.sample(key, by_kind[k] as f64 / 1e6);
    }
    l.sample("exec.rows_out", rows as f64);
    l.sample("core.morsels", morsels as f64);
    l.sample("core.op_wall_ms", wall as f64 / 1e6);
    l.sample("core.latency_ms", latency_ns as f64 / 1e6);
}

/// Cache counters summed over sessions.
pub fn cache_sum(sessions: &[&Session]) -> CacheStats {
    let mut s = CacheStats::default();
    for x in sessions {
        let c = x.stats();
        s.plan_hits += c.plan_hits;
        s.plan_misses += c.plan_misses;
        s.plan_invalidations += c.plan_invalidations;
        s.result_hits += c.result_hits;
        s.result_misses += c.result_misses;
    }
    s
}

/// Per-layer metrics every workload reports from its traced rounds.
pub struct LayerReport<'a> {
    pub layers: &'a Layers,
    pub rounds: f64,
    pub cache_before: CacheStats,
    pub cache_after: CacheStats,
    pub wal: morsel_storage::WalStats,
    pub commits: usize,
    pub commits_per_s: f64,
    pub dml_ms: Vec<f64>,
    pub snapshot_ms: Vec<f64>,
    pub merge_ms: Vec<f64>,
    pub stats_build_ms: Vec<f64>,
    pub tpch_s: Vec<f64>,
    pub ssb_s: Vec<f64>,
    pub untraced_read_ms: Vec<f64>,
    pub traced_read_ms: Vec<f64>,
}

impl LayerReport<'_> {
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let l = self.layers;
        let (a, b) = (&self.cache_after, &self.cache_before);
        let plan_hits = (a.plan_hits - b.plan_hits) as f64;
        let plan_misses = (a.plan_misses - b.plan_misses) as f64;
        let res_hits = (a.result_hits - b.result_hits) as f64;
        let res_misses = (a.result_misses - b.result_misses) as f64;
        let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
        let per_round = |key: &str| l.sum(key) / self.rounds.max(1.0);
        let untraced = median(&self.untraced_read_ms);
        let traced = median(&self.traced_read_ms);
        vec![
            ("sql.parse_us", l.median("sql.parse_us"), "us"),
            ("sql.bind_us", l.median("sql.bind_us"), "us"),
            ("planner.plan_us", l.median("planner.plan_us"), "us"),
            ("planner.plans", plan_misses, "count"),
            ("storage.stats_build_ms", median(&self.stats_build_ms), "ms"),
            (
                "storage.wal_bytes_per_commit",
                ratio(self.wal.written_bytes as f64, self.commits as f64),
                "bytes",
            ),
            ("storage.commits_per_fsync", self.wal.mean_group(), "count"),
            ("txn.snapshot_ms", median(&self.snapshot_ms), "ms"),
            ("txn.dml_ms", median(&self.dml_ms), "ms"),
            ("txn.commits_per_s", self.commits_per_s, "1/s"),
            ("txn.merge_ms", median(&self.merge_ms), "ms"),
            ("service.plan_ms", l.median("service.plan_ms"), "ms"),
            ("service.exec_ms", l.median("service.exec_ms"), "ms"),
            (
                "service.plan_hit_ratio",
                ratio(plan_hits, plan_hits + plan_misses),
                "ratio",
            ),
            (
                "service.result_hit_ratio",
                ratio(res_hits, res_hits + res_misses),
                "ratio",
            ),
            (
                "service.plan_invalidations",
                (a.plan_invalidations - b.plan_invalidations) as f64,
                "count",
            ),
            ("exec.scan_ms", per_round("exec.scan_ms"), "ms"),
            ("exec.join_ms", per_round("exec.join_ms"), "ms"),
            ("exec.agg_ms", per_round("exec.agg_ms"), "ms"),
            ("exec.sort_ms", per_round("exec.sort_ms"), "ms"),
            ("exec.rows_out", per_round("exec.rows_out"), "count"),
            ("core.morsels", per_round("core.morsels"), "count"),
            (
                "core.busy_ratio",
                ratio(
                    l.sum("core.op_wall_ms"),
                    l.sum("core.latency_ms") * WORKERS as f64,
                ),
                "ratio",
            ),
            ("datagen.tpch_s", median(&self.tpch_s), "s"),
            ("datagen.ssb_s", median(&self.ssb_s), "s"),
            (
                "bench.unattributed_ms",
                l.median("bench.unattributed_ms"),
                "ms",
            ),
            (
                "bench.trace_overhead_pct",
                ratio(traced - untraced, untraced) * 100.0,
                "%",
            ),
        ]
    }
}
