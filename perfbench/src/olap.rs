//! `olap`: one closed-loop client runs all 25 TPC-H and SSB fixtures
//! at SF 0.1 in a fixed rotation (the seed picks where it starts), pass
//! after pass.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

use morsel_datagen::{generate_ssb, generate_tpch, SsbConfig, TpchConfig};
use morsel_service::QueryService;

use crate::check::Expected;
use crate::common::*;
use crate::queries::{Query, SSB_NAMES, TPCH_NAMES};
use crate::table::{Ssb, Tpch};
use crate::{Args, Outcome};

pub const SCALE: f64 = 0.1;

/// Everything one read needs besides the query.
struct Ctx<'a> {
    service: &'a QueryService,
    refs: &'a HashMap<&'static str, Expected>,
    plan_targets: &'a [String],
    layers: &'a Layers,
    stats_seen: &'a Mutex<HashSet<String>>,
}

impl Ctx<'_> {
    /// Run, check and (when `traced`) attribute one read.
    fn read(&self, s: &Sessions, tally: &mut Tally, q: &Query, sql: &str, traced: bool) -> Read {
        let session = &s.pick(q).0;
        let start = Instant::now();
        let r = read(session, self.service, q.name(), sql);
        let predicted = self.plan_targets.iter().any(|t| t == q.name());
        let rerun = || read(session, self.service, q.name(), sql);
        settle(
            tally,
            q.name(),
            &r,
            &self.refs[q.name()],
            predicted,
            Some(&rerun),
        );
        if traced {
            s.attribute(self.layers, self.stats_seen, 0, q, sql, &r, start);
        }
        r
    }
}

pub fn run(args: &Args) -> Outcome {
    let topo = topology();
    let names: Vec<&str> = TPCH_NAMES.iter().chain(&SSB_NAMES).copied().collect();
    let start = (args.seed % names.len() as u64) as usize;
    let order: Vec<Query> = (0..names.len())
        .map(|i| Query::fixture(names[(start + i) % names.len()]))
        .collect();
    let texts: Vec<String> = order.iter().map(Query::sql).collect();
    let plan_targets = fault_plan_targets();

    let layers = Layers::default();
    let stats_seen = Mutex::new(HashSet::new());
    let mut tally = Tally::default();
    let (mut setup_s, mut tpch_s, mut ssb_s) = (vec![], vec![], vec![]);
    let mut cold = Ops::default();
    let mut refs: HashMap<&'static str, Expected> = HashMap::new();
    let mut stats_build_ms = Vec::new();

    for setup in 0..SETUPS {
        let watch = Watch::start();
        let t = Instant::now();
        let tpch = generate_tpch(TpchConfig::scaled(SCALE), &topo);
        tpch_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let ssb = generate_ssb(SsbConfig::scaled(SCALE), &topo);
        ssb_s.push(t.elapsed().as_secs_f64());
        let service = start_service();
        let mut sessions = Sessions::new(tpch.catalog(), ssb.catalog());
        let (setup_ms, off_cpu_ms) = watch.stop();
        setup_s.push((setup_ms / 1e3, off_cpu_ms));

        if refs.is_empty() {
            let (pt, ps) = (Tpch::from_db(&tpch), Ssb::from_db(&ssb));
            for q in &order {
                let want = q.reference(Some(&pt), Some(&ps));
                if want.rows.is_empty() {
                    eprintln!("note: reference of {} is empty", q.name());
                }
                refs.insert(q.name(), want);
            }
        }
        let ctx = Ctx {
            service: &service,
            refs: &refs,
            plan_targets: &plan_targets,
            layers: &layers,
            stats_seen: &stats_seen,
        };

        // Cold passes: first touch of statistics, planning and
        // execution; all but the first run on fresh copies of the
        // relations.
        for copy in 0..COLD_PASSES_PER_SETUP {
            if copy > 0 {
                sessions = sessions.fresh();
            }
            stats_seen.lock().unwrap().clear();
            let stats_before = layers.values("stats_ms_per_read").len();
            for (q, sql) in order.iter().zip(&texts) {
                let r = ctx.read(&sessions, &mut tally, q, sql, args.trace);
                cold.read(q.name(), &r);
            }
            stats_build_ms.push(
                layers.values("stats_ms_per_read")[stats_before..]
                    .iter()
                    .sum(),
            );
        }
        if setup + 1 < SETUPS {
            service.shutdown();
            continue;
        }

        // Timed phase: whole passes until `seconds` of engine time.
        let cache_before = sessions.cache();
        tally.start_counting();
        layers.forget_profiles();
        let mut ops = Ops::default();
        let (mut traced_ms, mut untraced_ms) = (vec![], vec![]);
        let mut pass = 0u64;
        let mut traced_rounds = 0.0;
        while ops.busy_ms() < args.seconds * 1e3 {
            let traced = args.trace && pass % 2 == 1;
            for (q, sql) in order.iter().zip(&texts) {
                let r = ctx.read(&sessions, &mut tally, q, sql, traced);
                ops.read(q.name(), &r);
                if r.result.is_ok() {
                    if traced {
                        &mut traced_ms
                    } else {
                        &mut untraced_ms
                    }
                    .push(r.latency_ms);
                }
            }
            if traced {
                traced_rounds += 1.0;
            }
            pass += 1;
        }
        let cache_after = sessions.cache();
        service.shutdown();

        if args.trace {
            let metrics = LayerReport {
                layers: &layers,
                rounds: traced_rounds,
                cache_before,
                cache_after,
                // olap does not write: the write-path layers read 0.
                wal: Default::default(),
                commits: 0,
                commits_per_s: 0.0,
                dml_ms: vec![],
                snapshot_ms: vec![],
                merge_ms: vec![],
                stats_build_ms,
                tpch_s,
                ssb_s,
                untraced_read_ms: untraced_ms,
                traced_read_ms: traced_ms,
            }
            .metrics();
            return Outcome::traced(tally, metrics, &layers, args);
        }
        let metrics = vec![
            ("setup_s", quiet_median(&setup_s), "s"),
            ("query_p50_ms", ops.p50(), "ms"),
            ("query_p95_ms", ops.p95(), "ms"),
            ("throughput_qps", ops.qps(), "queries/s"),
            ("geomean_ms", ops.geomean(), "ms"),
            ("cold_pass_ms", cold.pass_ms(), "ms"),
        ];
        return Outcome::untraced(tally, metrics, ops.reads());
    }
    unreachable!("the last set-up runs the timed phase")
}
