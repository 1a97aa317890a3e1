//! The requests the workloads send, their SQL texts and their
//! independent references.
//!
//! A [`Query`] is one of the 25 SQL fixtures of `morsel-queries`, with
//! the literals of its text spelled out for its reference. [`Query::sql`]
//! is the fixture text as `morsel-queries` ships it, so there is no
//! second copy of any query. The `reference_*` functions compute each
//! result straight from the generated columns in [`crate::table`], the
//! way `crates/queries/tests/tpch_correctness.rs` does.

use std::collections::{HashMap, HashSet};

use morsel_queries::{ssb_sql, tpch_sql};
use morsel_storage::{date, date_parts};

use crate::check::{Cell, Expected, Row};
use crate::table::{index_by, Ssb, Tpch};

/// A fixture with the literals of its text.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    T1 {
        cutoff: i32,
    },
    T3 {
        segment: String,
        day: i32,
    },
    T4 {
        start: i32,
        end: i32,
    },
    T5 {
        region: String,
        start: i32,
        end: i32,
    },
    T6 {
        start: i32,
        end: i32,
        dlo: i64,
        qty: i64,
    },
    T8,
    T9,
    T10 {
        start: i32,
        end: i32,
    },
    T12 {
        modes: (String, String),
        start: i32,
        end: i32,
    },
    T13,
    T14 {
        start: i32,
        end: i32,
    },
    T18 {
        qty: i64,
    },
    S11 {
        year: i64,
        dlo: i64,
        qty: i64,
    },
    S12,
    S13,
    S21 {
        category: String,
        region: String,
    },
    S22,
    S23,
    S31 {
        region: String,
        ylo: i64,
    },
    S32,
    S33,
    S34,
    S41 {
        region: String,
        mfgrs: (String, String),
    },
    S42,
    S43,
}

/// Which schema a query reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schema {
    Tpch,
    Ssb,
}

pub const TPCH_NAMES: [&str; 12] = [
    "q1", "q3", "q4", "q5", "q6", "q8", "q9", "q10", "q12", "q13", "q14", "q18",
];
pub const SSB_NAMES: [&str; 13] = [
    "ssb1.1", "ssb1.2", "ssb1.3", "ssb2.1", "ssb2.2", "ssb2.3", "ssb3.1", "ssb3.2", "ssb3.3",
    "ssb3.4", "ssb4.1", "ssb4.2", "ssb4.3",
];

fn s(x: &str) -> String {
    x.to_owned()
}

impl Query {
    /// The fixture named `name` with its own literals.
    pub fn fixture(name: &str) -> Query {
        match name {
            "q1" => Query::T1 {
                cutoff: date(1998, 9, 2),
            },
            "q3" => Query::T3 {
                segment: s("BUILDING"),
                day: date(1995, 3, 15),
            },
            "q4" => Query::T4 {
                start: date(1993, 7, 1),
                end: date(1993, 10, 1),
            },
            "q5" => Query::T5 {
                region: s("ASIA"),
                start: date(1994, 1, 1),
                end: date(1995, 1, 1),
            },
            "q6" => Query::T6 {
                start: date(1994, 1, 1),
                end: date(1995, 1, 1),
                dlo: 5,
                qty: 24,
            },
            "q8" => Query::T8,
            "q9" => Query::T9,
            "q10" => Query::T10 {
                start: date(1993, 10, 1),
                end: date(1994, 1, 1),
            },
            "q12" => Query::T12 {
                modes: (s("MAIL"), s("SHIP")),
                start: date(1994, 1, 1),
                end: date(1995, 1, 1),
            },
            "q13" => Query::T13,
            "q14" => Query::T14 {
                start: date(1995, 9, 1),
                end: date(1995, 10, 1),
            },
            "q18" => Query::T18 { qty: 300 },
            "ssb1.1" => Query::S11 {
                year: 1993,
                dlo: 1,
                qty: 25,
            },
            "ssb1.2" => Query::S12,
            "ssb1.3" => Query::S13,
            "ssb2.1" => Query::S21 {
                category: s("MFGR#12"),
                region: s("AMERICA"),
            },
            "ssb2.2" => Query::S22,
            "ssb2.3" => Query::S23,
            "ssb3.1" => Query::S31 {
                region: s("ASIA"),
                ylo: 1992,
            },
            "ssb3.2" => Query::S32,
            "ssb3.3" => Query::S33,
            "ssb3.4" => Query::S34,
            "ssb4.1" => Query::S41 {
                region: s("AMERICA"),
                mfgrs: (s("MFGR#1"), s("MFGR#2")),
            },
            "ssb4.2" => Query::S42,
            "ssb4.3" => Query::S43,
            other => panic!("unknown fixture {other}"),
        }
    }

    /// The fixture's name (`q6`, `ssb2.1`).
    pub fn name(&self) -> &'static str {
        use Query::*;
        match self {
            T1 { .. } => "q1",
            T3 { .. } => "q3",
            T4 { .. } => "q4",
            T5 { .. } => "q5",
            T6 { .. } => "q6",
            T8 => "q8",
            T9 => "q9",
            T10 { .. } => "q10",
            T12 { .. } => "q12",
            T13 => "q13",
            T14 { .. } => "q14",
            T18 { .. } => "q18",
            S11 { .. } => "ssb1.1",
            S12 => "ssb1.2",
            S13 => "ssb1.3",
            S21 { .. } => "ssb2.1",
            S22 => "ssb2.2",
            S23 => "ssb2.3",
            S31 { .. } => "ssb3.1",
            S32 => "ssb3.2",
            S33 => "ssb3.3",
            S34 => "ssb3.4",
            S41 { .. } => "ssb4.1",
            S42 => "ssb4.2",
            S43 => "ssb4.3",
        }
    }

    pub fn schema(&self) -> Schema {
        if self.name().starts_with("ssb") {
            Schema::Ssb
        } else {
            Schema::Tpch
        }
    }

    /// The fixture text as `morsel-queries` ships it.
    pub fn fixture_text(&self) -> &'static str {
        let name = self.name();
        match name.strip_prefix("ssb") {
            Some(id) => ssb_sql::text(id),
            None => tpch_sql::text(name[1..].parse().unwrap()),
        }
        .unwrap_or_else(|| panic!("no fixture text for {name}"))
    }

    /// The SQL text.
    pub fn sql(&self) -> String {
        self.fixture_text().to_owned()
    }

    /// The tables the query reads.
    pub fn tables(&self) -> Vec<String> {
        let sql = self.sql();
        let words: HashSet<&str> = sql
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .collect();
        let all: &[&str] = match self.schema() {
            Schema::Tpch => &[
                "region", "nation", "supplier", "customer", "part", "partsupp", "orders",
                "lineitem",
            ],
            Schema::Ssb => &["lineorder", "date", "customer", "supplier", "part"],
        };
        all.iter()
            .filter(|t| words.contains(*t))
            .map(|t| t.to_string())
            .collect()
    }

    /// The expected result, computed from the plain tables.
    pub fn reference(&self, tpch: Option<&Tpch>, ssb: Option<&Ssb>) -> Expected {
        match self.schema() {
            Schema::Tpch => reference_tpch(self, tpch.expect("TPC-H tables")),
            Schema::Ssb => reference_ssb(self, ssb.expect("SSB tables")),
        }
    }
}

// ------------------------------------------------------------ TPC-H

fn disc_price(ext: i64, disc: i64) -> i64 {
    ext * (100 - disc) / 100
}

fn year_of(day: i64) -> i64 {
    i64::from(date_parts(day as i32).0)
}

fn region_nations(db: &Tpch, region: &str) -> HashSet<i64> {
    let rk: Vec<i64> = (0..db.region.rows())
        .filter(|&r| db.region.s("r_name")[r] == region)
        .map(|r| db.region.i("r_regionkey")[r])
        .collect();
    (0..db.nation.rows())
        .filter(|&r| rk.contains(&db.nation.i("n_regionkey")[r]))
        .map(|r| db.nation.i("n_nationkey")[r])
        .collect()
}

fn nation_names(db: &Tpch) -> HashMap<i64, String> {
    let n = &db.nation;
    (0..n.rows())
        .map(|r| (n.i("n_nationkey")[r], n.s("n_name")[r].clone()))
        .collect()
}

/// `LIKE '%a%b%'`.
fn like_a_then_b(text: &str, a: &str, b: &str) -> bool {
    text.find(a)
        .is_some_and(|i| text[i + a.len()..].contains(b))
}

pub fn reference_tpch(q: &Query, db: &Tpch) -> Expected {
    use Query::*;
    let l = &db.lineitem;
    let o = &db.orders;
    let (l_ok, l_ext, l_disc) = (l.i("l_orderkey"), l.i("l_extendedprice"), l.i("l_discount"));
    match q {
        T1 { cutoff } => {
            let (qty, tax, ship) = (l.i("l_quantity"), l.i("l_tax"), l.i("l_shipdate"));
            let (rf, ls) = (l.s("l_returnflag"), l.s("l_linestatus"));
            let mut g: HashMap<(&str, &str), [i64; 6]> = HashMap::new();
            for r in 0..l.rows() {
                if ship[r] > i64::from(*cutoff) {
                    continue;
                }
                let dp = disc_price(l_ext[r], l_disc[r]);
                let a = g.entry((&rf[r], &ls[r])).or_default();
                a[0] += qty[r];
                a[1] += l_ext[r];
                a[2] += dp;
                a[3] += dp * (100 + tax[r]) / 100;
                a[4] += l_disc[r];
                a[5] += 1;
            }
            let rows = g
                .into_iter()
                .map(|((f, s), a)| {
                    let n = a[5] as f64;
                    vec![
                        Cell::S(f.into()),
                        Cell::S(s.into()),
                        Cell::I(a[0]),
                        Cell::I(a[1]),
                        Cell::I(a[2]),
                        Cell::I(a[3]),
                        Cell::F(a[0] as f64 / n),
                        Cell::F(a[1] as f64 / n),
                        Cell::F(a[4] as f64 / n),
                        Cell::I(a[5]),
                    ]
                })
                .collect();
            Expected::ordered(rows, &[(0, false), (1, false)], None)
        }
        T3 { segment, day } => {
            let c = &db.customer;
            let day = i64::from(*day);
            let custs: HashSet<i64> = (0..c.rows())
                .filter(|&r| c.s("c_mktsegment")[r] == *segment)
                .map(|r| c.i("c_custkey")[r])
                .collect();
            let ords: HashMap<i64, (i64, i64)> = (0..o.rows())
                .filter(|&r| o.i("o_orderdate")[r] < day && custs.contains(&o.i("o_custkey")[r]))
                .map(|r| {
                    let v = (o.i("o_orderdate")[r], o.i("o_shippriority")[r]);
                    (o.i("o_orderkey")[r], v)
                })
                .collect();
            let ship = l.i("l_shipdate");
            let mut g: HashMap<i64, i64> = HashMap::new();
            for r in 0..l.rows() {
                if ship[r] > day && ords.contains_key(&l_ok[r]) {
                    *g.entry(l_ok[r]).or_default() += disc_price(l_ext[r], l_disc[r]);
                }
            }
            let rows = g
                .into_iter()
                .map(|(k, rev)| {
                    let (od, sp) = ords[&k];
                    vec![Cell::I(k), Cell::I(od), Cell::I(sp), Cell::I(rev)]
                })
                .collect();
            Expected::ordered(rows, &[(3, true), (1, false)], Some(10))
        }
        T4 { start, end } => {
            let (cd, rd) = (l.i("l_commitdate"), l.i("l_receiptdate"));
            let late: HashSet<i64> = (0..l.rows())
                .filter(|&r| cd[r] < rd[r])
                .map(|r| l_ok[r])
                .collect();
            let mut g: HashMap<&str, i64> = HashMap::new();
            for r in 0..o.rows() {
                let od = o.i("o_orderdate")[r];
                if od >= i64::from(*start)
                    && od < i64::from(*end)
                    && late.contains(&o.i("o_orderkey")[r])
                {
                    *g.entry(&o.s("o_orderpriority")[r]).or_default() += 1;
                }
            }
            let rows = g
                .into_iter()
                .map(|(p, n)| vec![Cell::S(p.into()), Cell::I(n)])
                .collect();
            Expected::ordered(rows, &[(0, false)], None)
        }
        T5 { region, start, end } => {
            let nations = region_nations(db, region);
            let names = nation_names(db);
            let su = &db.supplier;
            let supp: HashMap<i64, i64> = (0..su.rows())
                .map(|r| (su.i("s_suppkey")[r], su.i("s_nationkey")[r]))
                .collect();
            let c = &db.customer;
            let cust: HashMap<i64, i64> = (0..c.rows())
                .map(|r| (c.i("c_custkey")[r], c.i("c_nationkey")[r]))
                .collect();
            let ords: HashMap<i64, i64> = (0..o.rows())
                .filter(|&r| {
                    let od = o.i("o_orderdate")[r];
                    od >= i64::from(*start) && od < i64::from(*end)
                })
                .filter_map(|r| Some((o.i("o_orderkey")[r], *cust.get(&o.i("o_custkey")[r])?)))
                .collect();
            let sk = l.i("l_suppkey");
            let mut g: HashMap<i64, i64> = HashMap::new();
            for r in 0..l.rows() {
                let (Some(&cn), Some(&sn)) = (ords.get(&l_ok[r]), supp.get(&sk[r])) else {
                    continue;
                };
                if cn == sn && nations.contains(&sn) {
                    *g.entry(sn).or_default() += disc_price(l_ext[r], l_disc[r]);
                }
            }
            let rows = g
                .into_iter()
                .map(|(n, rev)| vec![Cell::S(names[&n].clone()), Cell::I(rev)])
                .collect();
            Expected::ordered(rows, &[(1, true)], None)
        }
        T6 {
            start,
            end,
            dlo,
            qty,
        } => {
            let (ship, lq) = (l.i("l_shipdate"), l.i("l_quantity"));
            let mut sum = 0i64;
            for r in 0..l.rows() {
                if ship[r] >= i64::from(*start)
                    && ship[r] < i64::from(*end)
                    && l_disc[r] >= *dlo
                    && l_disc[r] <= dlo + 2
                    && lq[r] < *qty
                {
                    sum += l_ext[r] * l_disc[r] / 100;
                }
            }
            Expected::unordered(vec![vec![Cell::I(sum)]])
        }
        T8 => {
            let america = region_nations(db, "AMERICA");
            let names = nation_names(db);
            let p = &db.part;
            let parts: HashSet<i64> = (0..p.rows())
                .filter(|&r| p.s("p_type")[r] == "ECONOMY ANODIZED STEEL")
                .map(|r| p.i("p_partkey")[r])
                .collect();
            let su = &db.supplier;
            let supp: HashMap<i64, i64> = (0..su.rows())
                .map(|r| (su.i("s_suppkey")[r], su.i("s_nationkey")[r]))
                .collect();
            let c = &db.customer;
            let cust: HashMap<i64, i64> = (0..c.rows())
                .map(|r| (c.i("c_custkey")[r], c.i("c_nationkey")[r]))
                .collect();
            let (lo, hi) = (i64::from(date(1995, 1, 1)), i64::from(date(1996, 12, 31)));
            let ords: HashMap<i64, i64> = (0..o.rows())
                .filter(|&r| {
                    let od = o.i("o_orderdate")[r];
                    od >= lo
                        && od <= hi
                        && cust
                            .get(&o.i("o_custkey")[r])
                            .is_some_and(|n| america.contains(n))
                })
                .map(|r| (o.i("o_orderkey")[r], year_of(o.i("o_orderdate")[r])))
                .collect();
            let (pk, sk) = (l.i("l_partkey"), l.i("l_suppkey"));
            let mut g: HashMap<i64, (i64, i64)> = HashMap::new();
            for r in 0..l.rows() {
                let Some(&year) = ords.get(&l_ok[r]) else {
                    continue;
                };
                let Some(&sn) = supp.get(&sk[r]) else {
                    continue;
                };
                if !parts.contains(&pk[r]) {
                    continue;
                }
                let vol = disc_price(l_ext[r], l_disc[r]);
                let e = g.entry(year).or_default();
                if names[&sn] == "BRAZIL" {
                    e.0 += vol;
                }
                e.1 += vol;
            }
            let rows = g
                .into_iter()
                .map(|(y, (b, all))| vec![Cell::I(y), Cell::F(b as f64 * 1.0 / all as f64)])
                .collect();
            Expected::ordered(rows, &[(0, false)], None)
        }
        T9 => {
            let names = nation_names(db);
            let p = &db.part;
            let parts: HashSet<i64> = (0..p.rows())
                .filter(|&r| p.s("p_name")[r].contains("green"))
                .map(|r| p.i("p_partkey")[r])
                .collect();
            let ps = &db.partsupp;
            let cost: HashMap<(i64, i64), i64> = (0..ps.rows())
                .map(|r| {
                    let k = (ps.i("ps_partkey")[r], ps.i("ps_suppkey")[r]);
                    (k, ps.i("ps_supplycost")[r])
                })
                .collect();
            let su = &db.supplier;
            let supp: HashMap<i64, i64> = (0..su.rows())
                .map(|r| (su.i("s_suppkey")[r], su.i("s_nationkey")[r]))
                .collect();
            let years: HashMap<i64, i64> = (0..o.rows())
                .map(|r| (o.i("o_orderkey")[r], year_of(o.i("o_orderdate")[r])))
                .collect();
            let (pk, sk, lq) = (l.i("l_partkey"), l.i("l_suppkey"), l.i("l_quantity"));
            let mut g: HashMap<(i64, i64), i64> = HashMap::new();
            for r in 0..l.rows() {
                if !parts.contains(&pk[r]) {
                    continue;
                }
                let (Some(&c), Some(&sn), Some(&y)) = (
                    cost.get(&(pk[r], sk[r])),
                    supp.get(&sk[r]),
                    years.get(&l_ok[r]),
                ) else {
                    continue;
                };
                *g.entry((sn, y)).or_default() += disc_price(l_ext[r], l_disc[r]) - c * lq[r];
            }
            let rows = g
                .into_iter()
                .map(|((n, y), v)| vec![Cell::S(names[&n].clone()), Cell::I(y), Cell::I(v)])
                .collect();
            Expected::ordered(rows, &[(0, false), (1, true)], None)
        }
        T10 { start, end } => {
            let names = nation_names(db);
            let ords: HashMap<i64, i64> = (0..o.rows())
                .filter(|&r| {
                    let od = o.i("o_orderdate")[r];
                    od >= i64::from(*start) && od < i64::from(*end)
                })
                .map(|r| (o.i("o_orderkey")[r], o.i("o_custkey")[r]))
                .collect();
            let rf = l.s("l_returnflag");
            let mut g: HashMap<i64, i64> = HashMap::new();
            for r in 0..l.rows() {
                if rf[r] == "R" {
                    if let Some(&ck) = ords.get(&l_ok[r]) {
                        *g.entry(ck).or_default() += disc_price(l_ext[r], l_disc[r]);
                    }
                }
            }
            let c = &db.customer;
            let cidx = index_by(c, "c_custkey");
            let rows = g
                .into_iter()
                .filter_map(|(ck, rev)| {
                    let r = *cidx.get(&ck)?;
                    Some(vec![
                        Cell::I(ck),
                        Cell::S(c.s("c_name")[r].clone()),
                        Cell::I(c.i("c_acctbal")[r]),
                        Cell::S(c.s("c_phone")[r].clone()),
                        Cell::S(names[&c.i("c_nationkey")[r]].clone()),
                        Cell::S(c.s("c_address")[r].clone()),
                        Cell::S(c.s("c_comment")[r].clone()),
                        Cell::I(rev),
                    ])
                })
                .collect();
            Expected::ordered(rows, &[(7, true)], Some(20))
        }
        T12 { modes, start, end } => {
            let prio: HashMap<i64, &str> = (0..o.rows())
                .map(|r| (o.i("o_orderkey")[r], o.s("o_orderpriority")[r].as_str()))
                .collect();
            let (sm, sd, cd, rd) = (
                l.s("l_shipmode"),
                l.i("l_shipdate"),
                l.i("l_commitdate"),
                l.i("l_receiptdate"),
            );
            let mut g: HashMap<&str, (i64, i64)> = HashMap::new();
            for r in 0..l.rows() {
                if (sm[r] == modes.0 || sm[r] == modes.1)
                    && cd[r] < rd[r]
                    && sd[r] < cd[r]
                    && rd[r] >= i64::from(*start)
                    && rd[r] < i64::from(*end)
                {
                    let Some(p) = prio.get(&l_ok[r]) else {
                        continue;
                    };
                    let e = g.entry(&sm[r]).or_default();
                    if *p == "1-URGENT" || *p == "2-HIGH" {
                        e.0 += 1;
                    } else {
                        e.1 += 1;
                    }
                }
            }
            let rows = g
                .into_iter()
                .map(|(m, (h, lo))| vec![Cell::S(m.into()), Cell::I(h), Cell::I(lo)])
                .collect();
            Expected::ordered(rows, &[(0, false)], None)
        }
        T13 => {
            let mut per_cust: HashMap<i64, i64> =
                db.customer.i("c_custkey").iter().map(|&k| (k, 0)).collect();
            for r in 0..o.rows() {
                if !like_a_then_b(&o.s("o_comment")[r], "special", "requests") {
                    if let Some(n) = per_cust.get_mut(&o.i("o_custkey")[r]) {
                        *n += 1;
                    }
                }
            }
            let mut g: HashMap<i64, i64> = HashMap::new();
            for n in per_cust.values() {
                *g.entry(*n).or_default() += 1;
            }
            let rows = g
                .into_iter()
                .map(|(mc, n)| vec![Cell::I(mc), Cell::I(n)])
                .collect();
            Expected::ordered(rows, &[(1, true), (0, true)], None)
        }
        T14 { start, end } => {
            let p = &db.part;
            let promo: HashMap<i64, bool> = (0..p.rows())
                .map(|r| (p.i("p_partkey")[r], p.s("p_type")[r].starts_with("PROMO")))
                .collect();
            let (pk, sd) = (l.i("l_partkey"), l.i("l_shipdate"));
            let (mut num, mut den) = (0i64, 0i64);
            for r in 0..l.rows() {
                if sd[r] >= i64::from(*start) && sd[r] < i64::from(*end) {
                    if let Some(&is_promo) = promo.get(&pk[r]) {
                        let vol = disc_price(l_ext[r], l_disc[r]);
                        den += vol;
                        if is_promo {
                            num += vol;
                        }
                    }
                }
            }
            Expected::unordered(vec![vec![Cell::F(100.0 * num as f64 / den as f64)]])
        }
        T18 { qty } => {
            let lq = l.i("l_quantity");
            let mut sums: HashMap<i64, i64> = HashMap::new();
            for r in 0..l.rows() {
                *sums.entry(l_ok[r]).or_default() += lq[r];
            }
            let c = &db.customer;
            let cidx = index_by(c, "c_custkey");
            let rows = (0..o.rows())
                .filter_map(|r| {
                    let sq = *sums.get(&o.i("o_orderkey")[r])?;
                    if sq <= *qty {
                        return None;
                    }
                    let ck = o.i("o_custkey")[r];
                    let cr = *cidx.get(&ck)?;
                    Some(vec![
                        Cell::I(o.i("o_orderkey")[r]),
                        Cell::I(ck),
                        Cell::I(o.i("o_totalprice")[r]),
                        Cell::I(o.i("o_orderdate")[r]),
                        Cell::I(sq),
                        Cell::S(c.s("c_name")[cr].clone()),
                    ])
                })
                .collect();
            Expected::ordered(rows, &[(2, true), (3, false)], Some(100))
        }
        other => panic!("{} is not a TPC-H query", other.name()),
    }
}

// -------------------------------------------------------------- SSB

/// Visit every lineorder row with its customer, supplier, part and
/// date rows.
fn star(db: &Ssb, mut f: impl FnMut(usize, usize, usize, usize, usize)) {
    let lo = &db.lineorder;
    let ci = index_by(&db.customer, "c_custkey");
    let si = index_by(&db.supplier, "s_suppkey");
    let pi = index_by(&db.part, "p_partkey");
    let di = index_by(&db.date, "d_datekey");
    let (lc, ls, lp, ld) = (
        lo.i("lo_custkey"),
        lo.i("lo_suppkey"),
        lo.i("lo_partkey"),
        lo.i("lo_orderdate"),
    );
    for r in 0..lo.rows() {
        if let (Some(&c), Some(&s), Some(&p), Some(&d)) = (
            ci.get(&lc[r]),
            si.get(&ls[r]),
            pi.get(&lp[r]),
            di.get(&ld[r]),
        ) {
            f(r, c, s, p, d);
        }
    }
}

/// Group key part.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum K {
    I(i64),
    S(String),
}

fn grouped(g: HashMap<Vec<K>, i64>) -> Vec<Row> {
    g.into_iter()
        .map(|(k, v)| {
            let mut row: Row = k
                .into_iter()
                .map(|p| match p {
                    K::I(x) => Cell::I(x),
                    K::S(x) => Cell::S(x),
                })
                .collect();
            row.push(Cell::I(v));
            row
        })
        .collect()
}

pub fn reference_ssb(q: &Query, db: &Ssb) -> Expected {
    use Query::*;
    let lo = &db.lineorder;
    let (disc, lq, ext) = (
        lo.i("lo_discount"),
        lo.i("lo_quantity"),
        lo.i("lo_extendedprice"),
    );
    let (rev, cost) = (lo.i("lo_revenue"), lo.i("lo_supplycost"));
    let d = &db.date;
    let (dy, dym, dwk, dmon) = (
        d.i("d_year"),
        d.i("d_yearmonthnum"),
        d.i("d_weeknuminyear"),
        d.s("d_yearmonth"),
    );
    let (c, su, p) = (&db.customer, &db.supplier, &db.part);
    let (c_city, c_nation, c_region) = (c.s("c_city"), c.s("c_nation"), c.s("c_region"));
    let (s_city, s_nation, s_region) = (su.s("s_city"), su.s("s_nation"), su.s("s_region"));
    let (p_mfgr, p_cat, p_brand) = (p.s("p_mfgr"), p.s("p_category"), p.s("p_brand1"));

    // Flight 1: one scalar revenue over a date predicate.
    let flight1 = |date_ok: &dyn Fn(usize) -> bool, dlo: i64, qlo: i64, qhi: i64| {
        let mut sum = 0i64;
        star(db, |r, _, _, _, dr| {
            if date_ok(dr) && disc[r] >= dlo && disc[r] <= dlo + 2 && lq[r] >= qlo && lq[r] <= qhi {
                sum += ext[r] * disc[r] / 100;
            }
        });
        Expected::unordered(vec![vec![Cell::I(sum)]])
    };
    // Flight 2: revenue by year and brand.
    let flight2 = |part_ok: &dyn Fn(usize) -> bool, region: &str| {
        let mut g: HashMap<Vec<K>, i64> = HashMap::new();
        star(db, |r, _, sr, pr, dr| {
            if part_ok(pr) && s_region[sr] == region {
                *g.entry(vec![K::I(dy[dr]), K::S(p_brand[pr].clone())])
                    .or_default() += rev[r];
            }
        });
        Expected::ordered(grouped(g), &[(0, false), (1, false)], None)
    };
    // Flight 3: revenue by customer/supplier group and year.
    let flight3 = |c_key: &[String], s_key: &[String], ok: &dyn Fn(usize, usize, usize) -> bool| {
        let mut g: HashMap<Vec<K>, i64> = HashMap::new();
        star(db, |r, cr, sr, _, dr| {
            if ok(cr, sr, dr) {
                let k = vec![
                    K::S(c_key[cr].clone()),
                    K::S(s_key[sr].clone()),
                    K::I(dy[dr]),
                ];
                *g.entry(k).or_default() += rev[r];
            }
        });
        Expected::ordered(grouped(g), &[(2, false), (3, true)], None)
    };
    let kis = |city: &str| city == "UNITED KI1" || city == "UNITED KI5";
    match q {
        S11 { year, dlo, qty } => flight1(&|dr| dy[dr] == *year, *dlo, i64::MIN, qty - 1),
        S12 => flight1(&|dr| dym[dr] == 199401, 4, 26, 35),
        S13 => flight1(&|dr| dwk[dr] == 6 && dy[dr] == 1994, 5, 26, 35),
        S21 { category, region } => flight2(&|pr| p_cat[pr] == *category, region),
        S22 => flight2(
            &|pr| p_brand[pr].as_str() >= "MFGR#2221" && p_brand[pr].as_str() <= "MFGR#2228",
            "ASIA",
        ),
        S23 => flight2(&|pr| p_brand[pr] == "MFGR#2239", "EUROPE"),
        S31 { region, ylo } => flight3(c_nation, s_nation, &|cr, sr, dr| {
            c_region[cr] == *region
                && s_region[sr] == *region
                && dy[dr] >= *ylo
                && dy[dr] <= ylo + 5
        }),
        S32 => flight3(c_city, s_city, &|cr, sr, dr| {
            c_nation[cr] == "UNITED STATES"
                && s_nation[sr] == "UNITED STATES"
                && (1992..=1997).contains(&dy[dr])
        }),
        S33 => flight3(c_city, s_city, &|cr, sr, dr| {
            kis(&c_city[cr]) && kis(&s_city[sr]) && (1992..=1997).contains(&dy[dr])
        }),
        S34 => flight3(c_city, s_city, &|cr, sr, dr| {
            kis(&c_city[cr]) && kis(&s_city[sr]) && dmon[dr] == "Dec1997"
        }),
        S41 { region, mfgrs } => {
            let mut g: HashMap<Vec<K>, i64> = HashMap::new();
            star(db, |r, cr, sr, pr, dr| {
                if s_region[sr] == *region
                    && c_region[cr] == *region
                    && (p_mfgr[pr] == mfgrs.0 || p_mfgr[pr] == mfgrs.1)
                {
                    *g.entry(vec![K::I(dy[dr]), K::S(c_nation[cr].clone())])
                        .or_default() += rev[r] - cost[r];
                }
            });
            Expected::ordered(grouped(g), &[(0, false), (1, false)], None)
        }
        S42 => {
            let mut g: HashMap<Vec<K>, i64> = HashMap::new();
            star(db, |r, cr, sr, pr, dr| {
                if c_region[cr] == "AMERICA"
                    && s_region[sr] == "AMERICA"
                    && (p_mfgr[pr] == "MFGR#1" || p_mfgr[pr] == "MFGR#2")
                    && (dy[dr] == 1997 || dy[dr] == 1998)
                {
                    let k = vec![
                        K::I(dy[dr]),
                        K::S(s_nation[sr].clone()),
                        K::S(p_cat[pr].clone()),
                    ];
                    *g.entry(k).or_default() += rev[r] - cost[r];
                }
            });
            Expected::ordered(grouped(g), &[(0, false), (1, false), (2, false)], None)
        }
        S43 => {
            let mut g: HashMap<Vec<K>, i64> = HashMap::new();
            star(db, |r, _, sr, pr, dr| {
                if s_nation[sr] == "UNITED STATES"
                    && p_cat[pr] == "MFGR#14"
                    && (dy[dr] == 1997 || dy[dr] == 1998)
                {
                    let k = vec![
                        K::I(dy[dr]),
                        K::S(s_city[sr].clone()),
                        K::S(p_brand[pr].clone()),
                    ];
                    *g.entry(k).or_default() += rev[r] - cost[r];
                }
            });
            Expected::ordered(grouped(g), &[(0, false), (1, false), (2, false)], None)
        }
        other => panic!("{} is not an SSB query", other.name()),
    }
}
