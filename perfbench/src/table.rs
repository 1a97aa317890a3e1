//! Plain, engine-independent copies of the generated tables.
//!
//! The references in [`crate::queries`] read these vectors instead of
//! the engine's relations, and the `write-read` model mutates them in
//! step with the DML it sends, so expected results never pass through
//! the code under test (only through the data generator, which both
//! sides share).

use std::collections::HashMap;

use morsel_storage::{DataType, Relation, Value};

/// One column: integers (I64, I32 dates) widen to `i64`.
#[derive(Clone, Debug)]
pub enum Col {
    I(Vec<i64>),
    S(Vec<String>),
}

/// A named-column table.
#[derive(Clone, Debug)]
pub struct Table {
    names: Vec<String>,
    cols: Vec<Col>,
    rows: usize,
}

impl Table {
    pub fn from_relation(rel: &Relation) -> Table {
        let batch = rel.gather().decoded();
        let schema = rel.schema();
        let cols = (0..schema.len())
            .map(|c| {
                let col = batch.column(c);
                match schema.dtype(c) {
                    DataType::I64 => Col::I(col.as_i64().to_vec()),
                    DataType::I32 => Col::I(col.as_i32().iter().map(|&v| i64::from(v)).collect()),
                    DataType::Str => Col::S(col.as_str().to_vec()),
                    DataType::F64 => panic!("no generated table has a float column"),
                }
            })
            .collect();
        Table {
            names: schema.names().iter().map(|n| n.to_string()).collect(),
            cols,
            rows: batch.rows(),
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    fn index(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no column {name}"))
    }

    pub fn i(&self, name: &str) -> &[i64] {
        match &self.cols[self.index(name)] {
            Col::I(v) => v,
            Col::S(_) => panic!("{name} is a string column"),
        }
    }

    pub fn s(&self, name: &str) -> &[String] {
        match &self.cols[self.index(name)] {
            Col::S(v) => v,
            Col::I(_) => panic!("{name} is an integer column"),
        }
    }

    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.cols.len(), "row width");
        for (c, v) in self.cols.iter_mut().zip(row) {
            match (c, v) {
                (Col::I(col), Value::I64(x)) => col.push(*x),
                (Col::I(col), Value::I32(x)) => col.push(i64::from(*x)),
                (Col::S(col), Value::Str(x)) => col.push(x.clone()),
                (_, v) => panic!("value {v:?} does not fit its column"),
            }
        }
        self.rows += 1;
    }

    /// Keep the rows for which `keep` holds; returns how many went.
    pub fn retain(&mut self, keep: impl Fn(usize) -> bool) -> usize {
        let mask: Vec<bool> = (0..self.rows).map(keep).collect();
        for c in &mut self.cols {
            match c {
                Col::I(v) => filter_in_place(v, &mask),
                Col::S(v) => filter_in_place(v, &mask),
            }
        }
        let kept = mask.iter().filter(|&&k| k).count();
        let removed = self.rows - kept;
        self.rows = kept;
        removed
    }

    /// Set column `name` to `value` on every row `pred` selects;
    /// returns how many rows it touched.
    pub fn update(&mut self, name: &str, value: &Value, pred: impl Fn(usize) -> bool) -> usize {
        let rows: Vec<usize> = (0..self.rows).filter(|&r| pred(r)).collect();
        let c = self.index(name);
        match (&mut self.cols[c], value) {
            (Col::I(v), Value::I64(x)) => rows.iter().for_each(|&r| v[r] = *x),
            (Col::S(v), Value::Str(x)) => rows.iter().for_each(|&r| v[r] = x.clone()),
            (_, v) => panic!("value {v:?} does not fit column {name}"),
        }
        rows.len()
    }
}

fn filter_in_place<T>(v: &mut Vec<T>, mask: &[bool]) {
    let mut i = 0;
    v.retain(|_| {
        i += 1;
        mask[i - 1]
    });
}

/// Key → row index over an integer key column.
pub fn index_by(t: &Table, key: &str) -> HashMap<i64, usize> {
    t.i(key).iter().enumerate().map(|(r, &k)| (k, r)).collect()
}

/// The TPC-H tables the fixtures read.
#[derive(Clone)]
pub struct Tpch {
    pub region: Table,
    pub nation: Table,
    pub supplier: Table,
    pub customer: Table,
    pub part: Table,
    pub partsupp: Table,
    pub orders: Table,
    pub lineitem: Table,
}

impl Tpch {
    pub fn from_db(db: &morsel_datagen::TpchDb) -> Tpch {
        Tpch {
            region: Table::from_relation(&db.region),
            nation: Table::from_relation(&db.nation),
            supplier: Table::from_relation(&db.supplier),
            customer: Table::from_relation(&db.customer),
            part: Table::from_relation(&db.part),
            partsupp: Table::from_relation(&db.partsupp),
            orders: Table::from_relation(&db.orders),
            lineitem: Table::from_relation(&db.lineitem),
        }
    }

    pub fn table_mut(&mut self, name: &str) -> &mut Table {
        match name {
            "orders" => &mut self.orders,
            "lineitem" => &mut self.lineitem,
            other => panic!("the model writes only orders and lineitem, not {other}"),
        }
    }
}

/// The SSB tables the fixtures read.
pub struct Ssb {
    pub lineorder: Table,
    pub date: Table,
    pub customer: Table,
    pub supplier: Table,
    pub part: Table,
}

impl Ssb {
    pub fn from_db(db: &morsel_datagen::SsbDb) -> Ssb {
        Ssb {
            lineorder: Table::from_relation(&db.lineorder),
            date: Table::from_relation(&db.date_dim),
            customer: Table::from_relation(&db.customer),
            supplier: Table::from_relation(&db.supplier),
            part: Table::from_relation(&db.part),
        }
    }
}
