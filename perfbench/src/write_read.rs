//! `write-read`: one closed-loop client in database mode over a durable
//! `TxnDb` of TPC-H at SF 0.05 interleaves auto-commit DML on `orders`
//! and `lineitem` with reads of the TPC-H fixtures, and folds the
//! deltas with `merge_all` at the start of every round. Before the first
//! round it writes one anchor order and its line, which every round
//! keeps: they lie in the filters of Q1, Q4 and Q12, so that the reads
//! a written row fails (see [`FAIL_ONCE_ANCHORED`]) fail in every round
//! of every run, whatever the seed.
//!
//! The benchmark keeps its own copy of the two tables it writes and
//! applies each DML to it once the engine acknowledges the commit, so
//! every read's expected result is computed at the commit count
//! acknowledged before the read was invoked, and every DML's
//! rows-affected count is checked against it.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use morsel_datagen::{generate_ssb, generate_tpch, SsbConfig, TpchConfig, TpchDb};
use morsel_service::{Execution, QueryService, Session};
use morsel_storage::Value;
use morsel_txn::TxnDb;

use crate::common::*;
use crate::queries::Query;
use crate::stats::Rng;
use crate::table::Tpch;
use crate::{Args, Outcome};

pub const SCALE: f64 = 0.05;

/// The reads that follow each commit, in this order. Q1 also runs right
/// after the merge that opens a round.
pub const READS: [&str; 12] = [
    "q3", "q4", "q5", "q6", "q8", "q9", "q10", "q12", "q13", "q14", "q18", "q1",
];

/// Fixtures that fail every time once a written row lies in their
/// filter, as the anchor rows do from before the first round on:
/// `DeltaStore::snapshot` appends plain-string delta partitions beside
/// the dictionary-encoded base, and the integer-key group-by on a
/// string column scanned from the table (`l_returnflag`,
/// `o_orderpriority`) panics on them ("expected integer group column,
/// got Str"), before and after `merge_all` alike. Q12, whose
/// `l_shipmode` reaches its group-by through a join, does not fail.
pub const FAIL_ONCE_ANCHORED: [&str; 2] = ["q1", "q4"];

/// One DML statement and its effect on the model.
#[derive(Clone, Debug)]
pub enum Change {
    Insert {
        table: &'static str,
        rows: Vec<Vec<Value>>,
    },
    Update {
        table: &'static str,
        column: &'static str,
        value: Value,
        key_column: &'static str,
        key: i64,
    },
    Delete {
        table: &'static str,
        key_column: &'static str,
        key: i64,
    },
}

fn lit(v: &Value) -> String {
    match v {
        Value::I64(x) => x.to_string(),
        Value::I32(x) => x.to_string(),
        Value::F64(x) => x.to_string(),
        Value::Str(s) => format!("'{s}'"),
    }
}

impl Change {
    /// The statement's kind, such as `insert orders`: one per DML step.
    pub fn kind(&self) -> String {
        match self {
            Change::Insert { table, .. } => format!("insert {table}"),
            Change::Update { table, .. } => format!("update {table}"),
            Change::Delete { table, .. } => format!("delete {table}"),
        }
    }

    pub fn sql(&self) -> String {
        match self {
            Change::Insert { table, rows } => {
                let tuples: Vec<String> = rows
                    .iter()
                    .map(|r| format!("({})", r.iter().map(lit).collect::<Vec<_>>().join(", ")))
                    .collect();
                format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
            }
            Change::Update {
                table,
                column,
                value,
                key_column,
                key,
            } => format!(
                "UPDATE {table} SET {column} = {} WHERE {key_column} = {key}",
                lit(value)
            ),
            Change::Delete {
                table,
                key_column,
                key,
            } => format!("DELETE FROM {table} WHERE {key_column} = {key}"),
        }
    }

    pub fn table(&self) -> &'static str {
        match self {
            Change::Insert { table, .. }
            | Change::Update { table, .. }
            | Change::Delete { table, .. } => table,
        }
    }

    /// Apply to the model; returns the rows the statement affects.
    pub fn apply(&self, model: &mut Tpch) -> usize {
        let t = model.table_mut(self.table());
        match self {
            Change::Insert { rows, .. } => {
                rows.iter().for_each(|r| t.push_row(r));
                rows.len()
            }
            Change::Update {
                column,
                value,
                key_column,
                key,
                ..
            } => {
                let keys = t.i(key_column).to_vec();
                t.update(column, value, |r| keys[r] == *key)
            }
            Change::Delete {
                key_column, key, ..
            } => {
                let keys = t.i(key_column).to_vec();
                t.retain(|r| keys[r] != *key)
            }
        }
    }
}

/// Draws the round's DML from the seed and the model's current rows.
pub struct Writer {
    rng: Rng,
    next_orderkey: i64,
    last_order: i64,
    /// The anchor order, which no statement deletes.
    anchor: i64,
}

impl Writer {
    pub fn new(seed: u64, model: &Tpch) -> Writer {
        Writer {
            rng: Rng::new(seed ^ 0x5752_4954),
            next_orderkey: model
                .orders
                .i("o_orderkey")
                .iter()
                .max()
                .copied()
                .unwrap_or(0)
                + 1,
            last_order: 0,
            anchor: 0,
        }
    }

    /// The anchor: one order and one line for it, inside the filters of
    /// Q1, Q4 (order date in 1993-Q3, commit before receipt) and Q12
    /// (`MAIL`, shipped before committed, received in 1994). The same
    /// for every seed.
    pub fn anchor(&mut self) -> [Change; 2] {
        let key = self.next_orderkey;
        self.next_orderkey += 1;
        self.anchor = key;
        let day = |y, m, d| Value::I64(i64::from(morsel_storage::date(y, m, d)));
        let order = vec![
            Value::I64(key),
            Value::I64(1),
            Value::Str("O".into()),
            Value::I64(1_000_000),
            day(1993, 8, 16),
            Value::Str("1-URGENT".into()),
            Value::Str("Clerk#000000001".into()),
            Value::I64(0),
            Value::Str("anchor written by the benchmark".into()),
        ];
        let line = vec![
            Value::I64(key),
            Value::I64(1),
            Value::I64(1),
            Value::I64(1),
            Value::I64(10),
            Value::I64(10 * morsel_datagen::tpch::retail_price_cents(1) / 100),
            Value::I64(5),
            Value::I64(2),
            Value::Str("N".into()),
            Value::Str("O".into()),
            day(1993, 12, 20),
            day(1993, 12, 28),
            day(1994, 1, 5),
            Value::Str("DELIVER IN PERSON".into()),
            Value::Str("MAIL".into()),
            Value::Str("anchor written by the benchmark".into()),
        ];
        [
            Change::Insert {
                table: "orders",
                rows: vec![order],
            },
            Change::Insert {
                table: "lineitem",
                rows: vec![line],
            },
        ]
    }

    fn pick(&mut self, xs: &[i64]) -> i64 {
        xs[self.rng.below(xs.len())]
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.rng.below((hi - lo + 1) as usize) as i64
    }

    /// The `step`-th statement of a round (0..6): insert an order,
    /// insert its lines, update a line discount, update an order
    /// priority, delete an order's lines, delete that order.
    pub fn change(&mut self, step: usize, m: &Tpch) -> Change {
        const PRIORITIES: [&str; 5] =
            ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
        const MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
        match step {
            0 => {
                let key = self.next_orderkey;
                self.next_orderkey += 1;
                self.last_order = key;
                let orderdate = self.range(
                    i64::from(morsel_storage::date(1993, 1, 1)),
                    i64::from(morsel_storage::date(1997, 12, 31)),
                );
                let custkey = self.pick(m.customer.i("c_custkey"));
                let prio = PRIORITIES[self.rng.below(5)];
                let row = vec![
                    Value::I64(key),
                    Value::I64(custkey),
                    Value::Str("O".into()),
                    Value::I64(self.range(100_000, 50_000_000)),
                    Value::I64(orderdate),
                    Value::Str(prio.into()),
                    Value::Str("Clerk#000000001".into()),
                    Value::I64(0),
                    Value::Str("written by the benchmark".into()),
                ];
                Change::Insert {
                    table: "orders",
                    rows: vec![row],
                }
            }
            1 => {
                let key = self.last_order;
                let orders = &m.orders;
                let od = orders
                    .i("o_orderkey")
                    .iter()
                    .position(|&k| k == key)
                    .map_or(i64::from(morsel_storage::date(1995, 6, 1)), |r| {
                        orders.i("o_orderdate")[r]
                    });
                let lines = self.range(1, 4);
                let ps = &m.partsupp;
                let rows = (1..=lines)
                    .map(|ln| {
                        let r = self.rng.below(ps.rows());
                        let (pk, sk) = (ps.i("ps_partkey")[r], ps.i("ps_suppkey")[r]);
                        let qty = self.range(1, 50);
                        let ship = od + self.range(1, 121);
                        vec![
                            Value::I64(key),
                            Value::I64(pk),
                            Value::I64(sk),
                            Value::I64(ln),
                            Value::I64(qty),
                            Value::I64(qty * morsel_datagen::tpch::retail_price_cents(pk) / 100),
                            Value::I64(self.range(0, 10)),
                            Value::I64(self.range(0, 8)),
                            Value::Str(["R", "A", "N"][self.rng.below(3)].into()),
                            Value::Str(["O", "F"][self.rng.below(2)].into()),
                            Value::I64(ship),
                            Value::I64(od + self.range(30, 90)),
                            Value::I64(ship + self.range(1, 30)),
                            Value::Str("DELIVER IN PERSON".into()),
                            Value::Str(MODES[self.rng.below(7)].into()),
                            Value::Str("written by the benchmark".into()),
                        ]
                    })
                    .collect();
                Change::Insert {
                    table: "lineitem",
                    rows,
                }
            }
            2 => Change::Update {
                table: "lineitem",
                column: "l_discount",
                value: Value::I64(self.range(0, 10)),
                key_column: "l_orderkey",
                key: self.pick(m.lineitem.i("l_orderkey")),
            },
            3 => Change::Update {
                table: "orders",
                column: "o_orderpriority",
                value: Value::Str(PRIORITIES[self.rng.below(5)].into()),
                key_column: "o_orderkey",
                key: self.pick(m.orders.i("o_orderkey")),
            },
            4 => {
                self.last_order = self.anchor;
                while self.last_order == self.anchor {
                    self.last_order = self.pick(m.orders.i("o_orderkey"));
                }
                Change::Delete {
                    table: "lineitem",
                    key_column: "l_orderkey",
                    key: self.last_order,
                }
            }
            _ => Change::Delete {
                table: "orders",
                key_column: "o_orderkey",
                key: self.last_order,
            },
        }
    }
}

fn tables(db: &TpchDb) -> Vec<(&'static str, Arc<morsel_storage::Relation>)> {
    vec![
        ("region", db.region.clone()),
        ("nation", db.nation.clone()),
        ("supplier", db.supplier.clone()),
        ("customer", db.customer.clone()),
        ("part", db.part.clone()),
        ("partsupp", db.partsupp.clone()),
        ("orders", db.orders.clone()),
        ("lineitem", db.lineitem.clone()),
    ]
}

/// The client: reads checked against the model, DML applied to it.
pub struct Client<'a> {
    pub session: &'a Session,
    pub db: &'a TxnDb,
    pub service: &'a QueryService,
    pub model: Tpch,
    pub tally: Tally,
    pub plan_targets: Vec<String>,
    pub layers: Option<&'a Layers>,
    pub stats_seen: Mutex<HashSet<String>>,
    pub seen_version: u64,
    pub anchored: bool,
    pub ops: Ops,
    pub commit_ms: Vec<f64>,
    pub snapshot_ms: Vec<f64>,
    pub stats_build_ms: Vec<f64>,
}

impl<'a> Client<'a> {
    pub fn new(
        session: &'a Session,
        db: &'a TxnDb,
        service: &'a QueryService,
        model: Tpch,
        layers: Option<&'a Layers>,
    ) -> Client<'a> {
        Client {
            session,
            db,
            service,
            model,
            tally: Tally::default(),
            plan_targets: fault_plan_targets(),
            layers,
            stats_seen: Mutex::new(HashSet::new()),
            seen_version: u64::MAX,
            anchored: false,
            ops: Ops::default(),
            commit_ms: vec![],
            snapshot_ms: vec![],
            stats_build_ms: vec![],
        }
    }

    /// One pass over the fixtures; returns its reads.
    pub fn cold_pass(&mut self, traced: bool) -> Ops {
        for name in READS {
            self.read(name, traced);
        }
        std::mem::take(&mut self.ops)
    }

    /// A read, checked at the commit count acknowledged before it.
    pub fn read(&mut self, name: &'static str, traced: bool) -> Option<f64> {
        let q = Query::fixture(name);
        let sql = q.sql();
        let start = Instant::now();
        let r = read(self.session, self.service, name, &sql);
        self.ops.read(name, &r);
        let predicted = (self.anchored && FAIL_ONCE_ANCHORED.contains(&name))
            || self.plan_targets.iter().any(|t| t == name);
        let want = q.reference(Some(&self.model), None);
        let rerun = || read(self.session, self.service, name, &sql);
        let ok = settle(&mut self.tally, name, &r, &want, predicted, Some(&rerun));
        if let (Some(layers), true, Ok(exec)) = (self.layers, traced, &r.result) {
            // The session's refresh builds a snapshot and drops the one
            // it does not install, so the layer's cost is both.
            let t = Instant::now();
            drop(self.db.snapshot());
            let snap_ns = t.elapsed().as_nanos() as f64;
            self.snapshot_ms.push(snap_ns / 1e6);
            let (catalog, _) = self.db.snapshot();
            let version = self.db.version();
            if version != self.seen_version {
                self.seen_version = version;
                self.stats_seen.lock().unwrap().clear();
                let before = layers.values("stats_ms_per_read").len();
                self.attribute(
                    layers,
                    &q,
                    &sql,
                    &catalog,
                    start,
                    r.latency_ms,
                    exec,
                    snap_ns,
                );
                let built: f64 = layers.values("stats_ms_per_read")[before..].iter().sum();
                self.stats_build_ms.push(built);
            } else {
                self.attribute(
                    layers,
                    &q,
                    &sql,
                    &catalog,
                    start,
                    r.latency_ms,
                    exec,
                    snap_ns,
                );
            }
        }
        ok.then_some(r.latency_ms)
    }

    #[allow(clippy::too_many_arguments)]
    fn attribute(
        &self,
        layers: &Layers,
        q: &Query,
        sql: &str,
        catalog: &morsel_storage::Catalog,
        start: Instant,
        latency_ms: f64,
        exec: &Execution,
        snap_ns: f64,
    ) {
        Attribution {
            layers,
            planner: self.session.planner(),
            stats_seen: &self.stats_seen,
            scope: "tpch",
            snapshot_ns: Some(snap_ns),
        }
        .read(
            0,
            q.name(),
            sql,
            &q.tables(),
            catalog,
            start,
            latency_ms,
            exec,
        );
    }

    /// An auto-commit DML; applied to the model once acknowledged.
    pub fn write(&mut self, change: &Change) {
        let sql = change.sql();
        let (res, lat, off_cpu) = timed(|| self.session.execute(self.service, "dml", &sql));
        let class = match res {
            Ok(Execution::Dml(_)) => Class::Commit,
            _ => Class::Other,
        };
        self.ops.record(&change.kind(), class, lat, off_cpu);
        match res {
            Ok(Execution::Dml(d)) => {
                self.tally.ok();
                self.commit_ms.push(lat);
                let want = change.apply(&mut self.model);
                if d.rows_affected != want {
                    self.tally.mismatch(
                        &sql,
                        format!("{} rows affected, the model has {want}", d.rows_affected),
                    );
                }
            }
            Ok(_) => self.tally.mismatch(&sql, "not acknowledged as DML".into()),
            Err(e) => self.tally.fail(&sql, &e, false),
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let topo = topology();
    let layers = Layers::default();
    let trace = args.trace.then_some(&layers);
    let mut tally = Tally::default();
    let (mut setup_s, mut tpch_s, mut ssb_s) = (vec![], vec![], vec![]);
    let mut cold = Ops::default();
    let mut initial: Option<Tpch> = None;
    let mut stats_build_ms = Vec::new();

    for setup in 0..SETUPS {
        let watch = Watch::start();
        let t = Instant::now();
        let tpch = generate_tpch(TpchConfig::scaled(SCALE), &topo);
        tpch_s.push(t.elapsed().as_secs_f64());
        let dir = RunDir::new("write-read");
        let db = Arc::new(TxnDb::create(dir.path(), tables(&tpch)).expect("create database"));
        let service = start_service();
        let session = Session::builder()
            .database(Arc::clone(&db))
            .topology(&topo)
            .build();
        let (setup_ms, off_cpu_ms) = watch.stop();
        setup_s.push((setup_ms / 1e3, off_cpu_ms));
        if args.trace {
            // write-read reads no SSB data; the data generator's SSB
            // layer is timed at the same scale for the per-layer report.
            let t = Instant::now();
            drop(generate_ssb(SsbConfig::scaled(SCALE), &topo));
            ssb_s.push(t.elapsed().as_secs_f64());
        }
        let model = initial.get_or_insert_with(|| Tpch::from_db(&tpch)).clone();

        // Cold passes before any commit; the second runs on a second
        // database over fresh copies of the relations.
        for copy in 1..COLD_PASSES_PER_SETUP {
            let dir = RunDir::new(&format!("write-read-cold{copy}"));
            let copies = tables(&tpch)
                .into_iter()
                .map(|(n, r)| (n, fresh(&r)))
                .collect();
            let db = TxnDb::create(dir.path(), copies).expect("create database");
            let session = Session::builder()
                .database(Arc::new(db))
                .topology(&topo)
                .build();
            let db = session.db().unwrap();
            let mut client = Client::new(&session, db, &service, model.clone(), trace);
            cold.extend(client.cold_pass(args.trace));
            tally.absorb(client.tally);
            stats_build_ms.extend(client.stats_build_ms);
        }
        let mut client = Client::new(&session, &db, &service, model, trace);
        cold.extend(client.cold_pass(args.trace));
        if setup + 1 < SETUPS {
            tally.absorb(std::mem::take(&mut client.tally));
            stats_build_ms.append(&mut client.stats_build_ms);
            drop(client);
            service.shutdown();
            continue;
        }

        let mut writer = Writer::new(args.seed, &client.model);
        for change in writer.anchor() {
            client.write(&change);
        }
        client.anchored = true;
        tally.start_counting();
        client.tally.start_counting();
        layers.forget_profiles();
        client.ops = Ops::default();
        client.commit_ms.clear();
        let wal_before = db.wal_stats();
        let (mut merge_ms, mut dml_ms) = (vec![], vec![]);
        let (mut traced_ms, mut untraced_ms) = (vec![], vec![]);
        let cache_before = session.stats();
        let mut round = 0u64;
        let mut traced_rounds = 0.0;
        while client.ops.busy_ms() < args.seconds * 1e3 {
            let traced = args.trace && round % 2 == 1;
            let (merged, m, off_cpu) = timed(|| session.merge_all());
            client.ops.record("merge", Class::Other, m, off_cpu);
            match merged {
                Ok(()) => {
                    client.tally.ok();
                    merge_ms.push(m);
                }
                Err(e) => client.tally.fail("merge_all", &e, false),
            }
            let mut reads = vec![client.read("q1", traced)];
            for step in 0..6 {
                let change = writer.change(step, &client.model);
                let before = client.commit_ms.len();
                client.write(&change);
                if traced && client.commit_ms.len() > before {
                    dml_ms.push(*client.commit_ms.last().unwrap());
                }
                for name in READS {
                    reads.push(client.read(name, traced));
                }
            }
            let lat = reads.into_iter().flatten();
            if traced {
                traced_ms.extend(lat);
                traced_rounds += 1.0;
            } else {
                untraced_ms.extend(lat);
            }
            round += 1;
        }
        let cache_after = session.stats();
        tally.absorb(std::mem::take(&mut client.tally));
        stats_build_ms.append(&mut client.stats_build_ms);
        let mut wal = db.wal_stats();
        wal.written_bytes -= wal_before.written_bytes;
        wal.groups.drain(..wal_before.groups.len());
        let ops = std::mem::take(&mut client.ops);
        let (commit_ms, snapshot_ms) = (
            std::mem::take(&mut client.commit_ms),
            std::mem::take(&mut client.snapshot_ms),
        );
        drop(client);
        service.shutdown();

        if args.trace {
            let metrics = LayerReport {
                layers: &layers,
                rounds: traced_rounds,
                cache_before,
                cache_after,
                wal,
                commits: commit_ms.len(),
                commits_per_s: ops.commits_per_s(),
                dml_ms,
                snapshot_ms,
                merge_ms,
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
        eprintln!(
            "commits per second of the timed phase: {:.4}; median commit latency: {:.4} ms",
            ops.commits_per_s(),
            ops.commit_p50()
        );
        return Outcome::untraced(tally, metrics, ops.reads());
    }
    unreachable!("the last set-up runs the timed phase")
}
