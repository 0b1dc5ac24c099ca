//! Logical query plans over ongoing relations.
//!
//! Plans are built against a `Database` with the
//! fluent [`QueryBuilder`], which resolves attribute names to positions as
//! the plan grows — the same role the parser/analyzer plays in the paper's
//! PostgreSQL prototype.
//!
//! As in the paper's algebra, `⋈_θ` is `σ_θ(×)`, so one node covers both:
//! [`LogicalPlan::Join`] without a predicate is the Cartesian product. A
//! logical plan has no rendering of its own; `EXPLAIN` shows the physical
//! plan it compiles to (`compile(..)?.explain()`).

use crate::catalog::Database;
use crate::error::{EngineError, Result};
use ongoing_relation::algebra::ProjItem;
use ongoing_relation::{Attribute, Expr, Schema, SchemaError};

/// A logical relational-algebra plan (Theorem 2 operators).
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Scan of a named base relation.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Schema of the table (possibly re-qualified).
        schema: Schema,
    },
    /// Selection `σ_θ`.
    Select {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate over the input schema.
        pred: Expr,
    },
    /// Projection `π` with optional computed columns.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output columns.
        items: Vec<ProjItem>,
        /// Pre-computed output schema.
        schema: Schema,
    },
    /// Theta-join `⋈_θ` (σ_θ over the product, fused); without a
    /// predicate, the Cartesian product `×`.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join predicate over the concatenated schema (`None`: `×`).
        pred: Option<Expr>,
    },
    /// Union `∪` (type-compatible inputs).
    Union {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Difference `−` (type-compatible inputs).
    Difference {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Grouped aggregation `γ` over fixed attributes (Sec. X extension):
    /// aggregates are ongoing integers.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by columns (fixed attributes).
        group_cols: Vec<usize>,
        /// Aggregate functions.
        aggs: Vec<ongoing_relation::aggregate::AggFn>,
        /// Pre-computed output schema (group attrs + one ongoing-integer
        /// attr per aggregate).
        schema: Schema,
    },
}

impl LogicalPlan {
    /// The output schema of the plan.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::Scan { schema, .. } => schema.clone(),
            LogicalPlan::Select { input, .. } => input.schema(),
            LogicalPlan::Project { schema, .. } => schema.clone(),
            LogicalPlan::Join { left, right, .. } => left.schema().product(&right.schema()),
            LogicalPlan::Union { left, .. } | LogicalPlan::Difference { left, .. } => left.schema(),
            LogicalPlan::Aggregate { schema, .. } => schema.clone(),
        }
    }
}

/// Fluent builder that resolves names against schemas while assembling a
/// [`LogicalPlan`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    plan: LogicalPlan,
    schema: Schema,
}

impl QueryBuilder {
    /// Starts from a base table.
    pub fn scan(db: &Database, table: &str) -> Result<Self> {
        let t = db.table(table)?;
        let schema = t.schema().clone();
        Ok(QueryBuilder {
            plan: LogicalPlan::Scan {
                table: table.to_string(),
                schema: schema.clone(),
            },
            schema,
        })
    }

    /// Starts from a base table under an alias: attribute names are
    /// qualified `alias.name`, enabling self-joins (`B` vs `B'`).
    pub fn scan_as(db: &Database, table: &str, alias: &str) -> Result<Self> {
        let t = db.table(table)?;
        let schema = t.schema().qualify(alias);
        Ok(QueryBuilder {
            plan: LogicalPlan::Scan {
                table: table.to_string(),
                schema: schema.clone(),
            },
            schema,
        })
    }

    /// The schema at this point of the pipeline.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Appends a selection; the closure builds the predicate against the
    /// current schema.
    pub fn filter(
        self,
        f: impl FnOnce(&Schema) -> std::result::Result<Expr, SchemaError>,
    ) -> Result<Self> {
        let pred = f(&self.schema)?;
        Ok(QueryBuilder {
            plan: LogicalPlan::Select {
                input: Box::new(self.plan),
                pred,
            },
            schema: self.schema,
        })
    }

    /// Appends a theta-join with another pipeline; the closure sees the
    /// concatenated schema.
    pub fn join(
        self,
        right: QueryBuilder,
        f: impl FnOnce(&Schema) -> std::result::Result<Expr, SchemaError>,
    ) -> Result<Self> {
        let schema = self.schema.product(&right.schema);
        let pred = f(&schema)?;
        Ok(QueryBuilder {
            plan: LogicalPlan::Join {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
                pred: Some(pred),
            },
            schema,
        })
    }

    /// Appends a Cartesian product: a join without a predicate.
    pub fn product(self, right: QueryBuilder) -> Self {
        let schema = self.schema.product(&right.schema);
        QueryBuilder {
            plan: LogicalPlan::Join {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
                pred: None,
            },
            schema,
        }
    }

    /// Projects onto named attributes.
    pub fn project_cols(self, names: &[&str]) -> Result<Self> {
        let mut items = Vec::with_capacity(names.len());
        for n in names {
            items.push(ProjItem::col(&self.schema, n).map_err(EngineError::Schema)?);
        }
        self.project(items)
    }

    /// Projects with explicit items (pass-through and computed columns).
    pub fn project(self, items: Vec<ProjItem>) -> Result<Self> {
        let mut attrs = Vec::with_capacity(items.len());
        for item in &items {
            match item {
                ProjItem::Col(i) => attrs.push(self.schema.attr(*i)?.clone()),
                ProjItem::Named { expr, name } => attrs.push(Attribute::new(
                    name.clone(),
                    expr.result_type(&self.schema).map_err(EngineError::Eval)?,
                )),
            }
        }
        let schema = Schema::new(attrs);
        Ok(QueryBuilder {
            plan: LogicalPlan::Project {
                input: Box::new(self.plan),
                items,
                schema: schema.clone(),
            },
            schema,
        })
    }

    /// Set union with another pipeline.
    pub fn union(self, right: QueryBuilder) -> Result<Self> {
        if !self.schema.compatible_with(&right.schema) {
            return Err(EngineError::Schema(SchemaError::Mismatch(
                "union requires type-compatible schemas".into(),
            )));
        }
        Ok(QueryBuilder {
            plan: LogicalPlan::Union {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
            },
            schema: self.schema,
        })
    }

    /// Set difference with another pipeline.
    pub fn difference(self, right: QueryBuilder) -> Result<Self> {
        if !self.schema.compatible_with(&right.schema) {
            return Err(EngineError::Schema(SchemaError::Mismatch(
                "difference requires type-compatible schemas".into(),
            )));
        }
        Ok(QueryBuilder {
            plan: LogicalPlan::Difference {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
            },
            schema: self.schema,
        })
    }

    /// Grouped aggregation: group on the named (fixed) attributes and
    /// compute each aggregate as an ongoing integer. Output attribute names
    /// are the group names followed by `names`, exactly one per aggregate
    /// ([`AggFn::default_name`] gives a conventional one).
    ///
    /// [`AggFn::default_name`]: ongoing_relation::aggregate::AggFn::default_name
    pub fn aggregate(
        self,
        group_names: &[&str],
        aggs: Vec<ongoing_relation::aggregate::AggFn>,
        names: Vec<String>,
    ) -> Result<Self> {
        use ongoing_relation::ValueType;
        if aggs.len() != names.len() {
            return Err(EngineError::Plan(
                "one output name per aggregate required".into(),
            ));
        }
        let mut group_cols = Vec::with_capacity(group_names.len());
        let mut attrs = Vec::with_capacity(group_names.len() + aggs.len());
        for n in group_names {
            let idx = self.schema.index_of(n)?;
            let attr = self.schema.attr(idx)?;
            if attr.ty.is_ongoing() {
                return Err(EngineError::Plan(format!(
                    "cannot group on ongoing attribute `{n}`"
                )));
            }
            group_cols.push(idx);
            attrs.push(attr.clone());
        }
        for (a, name) in aggs.iter().zip(&names) {
            if let ongoing_relation::aggregate::AggFn::SumInt(col) = a {
                let attr = self.schema.attr(*col)?;
                if attr.ty != ValueType::Int {
                    return Err(EngineError::Plan(format!(
                        "SUM requires an Int attribute, `{}` is {:?}",
                        attr.name, attr.ty
                    )));
                }
            }
            attrs.push(Attribute::new(name.clone(), ValueType::OngoingInt));
        }
        let schema = Schema::new(attrs);
        Ok(QueryBuilder {
            plan: LogicalPlan::Aggregate {
                input: Box::new(self.plan),
                group_cols,
                aggs,
                schema: schema.clone(),
            },
            schema,
        })
    }

    /// Finishes the pipeline.
    pub fn build(self) -> LogicalPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::date::md;
    use ongoing_core::OngoingInterval;
    use ongoing_relation::{OngoingRelation, Value};

    fn db() -> Database {
        let db = Database::new();
        let schema = Schema::builder().int("BID").str("C").interval("VT").build();
        let mut b = OngoingRelation::new(schema.clone());
        b.insert(vec![
            Value::Int(500),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::from_until_now(md(1, 25))),
        ])
        .unwrap();
        db.create_table("B", b).unwrap();
        let mut p =
            OngoingRelation::new(Schema::builder().int("PID").str("C").interval("VT").build());
        p.insert(vec![
            Value::Int(201),
            Value::str("Spam filter"),
            Value::Interval(OngoingInterval::fixed(md(8, 15), md(8, 24))),
        ])
        .unwrap();
        db.create_table("P", p).unwrap();
        db
    }

    #[test]
    fn scan_resolves_schema() {
        let db = db();
        let q = QueryBuilder::scan(&db, "B").unwrap();
        assert_eq!(q.schema().len(), 3);
        assert!(QueryBuilder::scan(&db, "missing").is_err());
    }

    #[test]
    fn scan_as_qualifies() {
        let db = db();
        let q = QueryBuilder::scan_as(&db, "B", "B1").unwrap();
        assert_eq!(q.schema().attrs()[0].name, "B1.BID");
    }

    #[test]
    fn join_schema_concatenates_and_explains() {
        let db = db();
        let b = QueryBuilder::scan_as(&db, "B", "B").unwrap();
        let p = QueryBuilder::scan_as(&db, "P", "P").unwrap();
        let plan = b
            .join(p, |s| {
                Ok(Expr::col(s, "B.C")?
                    .eq(Expr::col(s, "P.C")?)
                    .and(Expr::col(s, "B.VT")?.before(Expr::col(s, "P.VT")?)))
            })
            .unwrap()
            .build();
        assert_eq!(plan.schema().len(), 6);
        let explain = crate::plan::compile(&db, &plan, &Default::default())
            .unwrap()
            .explain();
        assert!(explain.contains("HashJoin"), "{explain}");
        assert!(explain.contains("SeqScan B"), "{explain}");
        assert!(explain.contains("SeqScan P"), "{explain}");
    }

    #[test]
    fn union_rejects_incompatible() {
        let db = db();
        let b = QueryBuilder::scan(&db, "B").unwrap();
        let p = QueryBuilder::scan(&db, "P")
            .unwrap()
            .project_cols(&["C"])
            .unwrap();
        assert!(b.union(p).is_err());
    }

    #[test]
    fn project_computes_schema() {
        let db = db();
        let q = QueryBuilder::scan(&db, "B")
            .unwrap()
            .project_cols(&["VT", "BID"])
            .unwrap();
        assert_eq!(q.schema().attrs()[0].name, "VT");
        assert_eq!(q.schema().attrs()[1].name, "BID");
    }
}
