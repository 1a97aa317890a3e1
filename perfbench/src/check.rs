//! Comparing an engine result against an independent reference.
//!
//! Rows compare as multisets unless the SQL orders them. Where it does,
//! the engine's rows must be sorted on the sort keys, and for `LIMIT`
//! results the row count must be exact while rows tied with the last
//! row at the cut compare on their sort keys only (any of them may be
//! the one kept). Floats compare within [`REL_TOL`].

use std::cmp::Ordering;

use morsel_storage::{Batch, Value};

/// Relative tolerance for float cells.
pub const REL_TOL: f64 = 1e-9;

/// One result cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    I(i64),
    F(f64),
    S(String),
}

impl Cell {
    fn from_value(v: Value) -> Cell {
        match v {
            Value::I64(x) => Cell::I(x),
            Value::I32(x) => Cell::I(i64::from(x)),
            Value::F64(x) => Cell::F(x),
            Value::Str(s) => Cell::S(s),
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Cell::I(x) => Some(*x as f64),
            Cell::F(x) => Some(*x),
            Cell::S(_) => None,
        }
    }

    /// Equal up to float tolerance.
    pub fn approx_eq(&self, other: &Cell) -> bool {
        match (self, other) {
            (Cell::I(a), Cell::I(b)) => a == b,
            (Cell::S(a), Cell::S(b)) => a == b,
            (a, b) => match (a.num(), b.num()) {
                (Some(x), Some(y)) => (x - y).abs() <= REL_TOL * x.abs().max(y.abs()).max(1.0),
                _ => false,
            },
        }
    }

    /// The order SQL sorts in; approximately equal numbers tie.
    fn sql_cmp(&self, other: &Cell) -> Ordering {
        if self.approx_eq(other) {
            return Ordering::Equal;
        }
        match (self, other) {
            (Cell::S(a), Cell::S(b)) => a.cmp(b),
            (a, b) => match (a.num(), b.num()) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => Ordering::Equal,
            },
        }
    }
}

pub type Row = Vec<Cell>;

/// A reference result: every qualifying row (before any `LIMIT`), plus
/// the SQL's `ORDER BY` as `(column, descending)` and its `LIMIT`.
#[derive(Clone, Debug)]
pub struct Expected {
    pub rows: Vec<Row>,
    pub order: Vec<(usize, bool)>,
    pub limit: Option<usize>,
}

impl Expected {
    pub fn unordered(rows: Vec<Row>) -> Expected {
        Expected {
            rows,
            order: Vec::new(),
            limit: None,
        }
    }

    pub fn ordered(rows: Vec<Row>, order: &[(usize, bool)], limit: Option<usize>) -> Expected {
        let mut e = Expected {
            rows,
            order: order.to_vec(),
            limit,
        };
        let order = e.order.clone();
        e.rows.sort_by(|a, b| key_cmp(&order, a, b));
        e
    }

    /// Rows the SQL returns (after `LIMIT`).
    pub fn result_rows(&self) -> usize {
        self.limit
            .map_or(self.rows.len(), |l| l.min(self.rows.len()))
    }
}

fn key_cmp(order: &[(usize, bool)], a: &Row, b: &Row) -> Ordering {
    for &(c, desc) in order {
        let o = a[c].sql_cmp(&b[c]);
        let o = if desc { o.reverse() } else { o };
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

/// A total order for multiset comparison.
fn canon_cmp(a: &Row, b: &Row) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        let o = match (x, y) {
            (Cell::S(p), Cell::S(q)) => p.cmp(q),
            (Cell::S(_), _) => Ordering::Greater,
            (_, Cell::S(_)) => Ordering::Less,
            (p, q) => p.num().unwrap().total_cmp(&q.num().unwrap()),
        };
        if o != Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

pub fn rows_of(batch: &Batch) -> Vec<Row> {
    (0..batch.rows())
        .map(|r| {
            batch
                .columns()
                .iter()
                .map(|c| Cell::from_value(c.value(r)))
                .collect()
        })
        .collect()
}

fn same_multiset(got: &[Row], want: &[Row]) -> Result<(), String> {
    let mut g = got.to_vec();
    let mut w = want.to_vec();
    g.sort_by(canon_cmp);
    w.sort_by(canon_cmp);
    for (a, b) in g.iter().zip(&w) {
        if a.len() != b.len() || !a.iter().zip(b).all(|(x, y)| x.approx_eq(y)) {
            return Err(format!("row {a:?} where the reference has {b:?}"));
        }
    }
    Ok(())
}

/// Check an engine result against its reference.
pub fn check(want: &Expected, got: &Batch) -> Result<(), String> {
    check_rows(want, &rows_of(got))
}

pub fn check_rows(want: &Expected, got: &[Row]) -> Result<(), String> {
    let n = want.result_rows();
    if got.len() != n {
        return Err(format!("{} rows, reference has {n}", got.len()));
    }
    if let (Some(g), Some(w)) = (got.first(), want.rows.first()) {
        if g.len() != w.len() {
            return Err(format!("{} columns, reference has {}", g.len(), w.len()));
        }
    }
    if want.order.is_empty() {
        return same_multiset(got, &want.rows);
    }
    for (i, pair) in got.windows(2).enumerate() {
        if key_cmp(&want.order, &pair[0], &pair[1]) == Ordering::Greater {
            return Err(format!("rows {i} and {} are out of ORDER BY order", i + 1));
        }
    }
    for (i, (g, w)) in got.iter().zip(&want.rows).enumerate() {
        if key_cmp(&want.order, g, w) != Ordering::Equal {
            return Err(format!("row {i} sort key {g:?}, reference {w:?}"));
        }
    }
    // Runs of equal sort keys compare as multisets, except the run cut
    // by LIMIT, whose members are interchangeable.
    let mut start = 0;
    while start < n {
        let mut end = start + 1;
        while end < n && key_cmp(&want.order, &got[start], &got[end]) == Ordering::Equal {
            end += 1;
        }
        let cut = end == n
            && want.rows.len() > n
            && key_cmp(&want.order, &want.rows[n], &got[start]) == Ordering::Equal;
        if !cut {
            same_multiset(&got[start..end], &want.rows[start..end])?;
        }
        start = end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(k: &str, v: i64) -> Row {
        vec![Cell::S(k.into()), Cell::I(v)]
    }

    #[test]
    fn limit_ties_at_the_cut_compare_on_sort_keys_only() {
        let want = Expected::ordered(vec![r("a", 3), r("b", 2), r("c", 2)], &[(1, true)], Some(2));
        assert!(check_rows(&want, &[r("a", 3), r("c", 2)]).is_ok());
        assert!(check_rows(&want, &[r("a", 3), r("b", 2)]).is_ok());
        assert!(check_rows(&want, &[r("x", 3), r("b", 2)]).is_err());
    }

    #[test]
    fn floats_compare_within_tolerance() {
        let want = Expected::unordered(vec![vec![Cell::F(1.0 / 3.0)]]);
        assert!(check_rows(&want, &[vec![Cell::F(0.333_333_333_333_4)]]).is_ok());
        assert!(check_rows(&want, &[vec![Cell::F(0.3334)]]).is_err());
    }
}
