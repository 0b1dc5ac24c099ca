//! Schemas of ongoing relations (Definition 5).
//!
//! The schema of an ongoing relation is `R = (A, RT)`: a list of fixed and
//! ongoing attributes plus the implicit reference-time attribute `RT`. `RT`
//! is *not* part of the attribute list — it is maintained by the system and
//! restricted by predicates on ongoing attributes.

use crate::value::ValueType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name, possibly qualified (`"B.VT"`).
    pub name: String,
    /// Attribute type.
    pub ty: ValueType,
}

impl Attribute {
    /// Creates an attribute.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Attribute {
            name: name.into(),
            ty,
        }
    }
}

/// The attribute list `A` of an ongoing relation schema.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

/// Error for schema lookups and algebra type checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// No attribute with this name.
    UnknownAttribute(String),
    /// Attribute name is ambiguous after a product/join.
    Ambiguous(String),
    /// Index out of range.
    BadIndex(usize),
    /// Schemas of a union/difference do not match.
    Mismatch(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::UnknownAttribute(n) => write!(f, "unknown attribute `{n}`"),
            SchemaError::Ambiguous(n) => write!(f, "ambiguous attribute `{n}`"),
            SchemaError::BadIndex(i) => write!(f, "attribute index {i} out of range"),
            SchemaError::Mismatch(m) => write!(f, "schema mismatch: {m}"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl Schema {
    /// Creates a schema from attributes.
    pub fn new(attrs: Vec<Attribute>) -> Self {
        Schema { attrs }
    }

    /// Builder-style schema construction.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder { attrs: Vec::new() }
    }

    /// The attributes, in order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Resolves a name to an index. Accepts both exact matches and
    /// unqualified suffixes: `"VT"` finds `"B.VT"` if that is unambiguous.
    pub fn index_of(&self, name: &str) -> Result<usize, SchemaError> {
        if let Some(i) = self.attrs.iter().position(|a| a.name == name) {
            return Ok(i);
        }
        let mut found = None;
        for (i, a) in self.attrs.iter().enumerate() {
            let suffix_match = a
                .name
                .rsplit_once('.')
                .is_some_and(|(_, base)| base == name);
            if suffix_match {
                if found.is_some() {
                    return Err(SchemaError::Ambiguous(name.to_string()));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| SchemaError::UnknownAttribute(name.to_string()))
    }

    /// The attribute at `idx`.
    pub fn attr(&self, idx: usize) -> Result<&Attribute, SchemaError> {
        self.attrs.get(idx).ok_or(SchemaError::BadIndex(idx))
    }

    /// Concatenation for Cartesian products / joins.
    pub fn product(&self, other: &Schema) -> Schema {
        let mut attrs = self.attrs.clone();
        attrs.extend(other.attrs.iter().cloned());
        Schema { attrs }
    }

    /// Projection onto the attributes at `indices`.
    pub fn project(&self, indices: &[usize]) -> Result<Schema, SchemaError> {
        let mut attrs = Vec::with_capacity(indices.len());
        for &i in indices {
            attrs.push(self.attr(i)?.clone());
        }
        Ok(Schema { attrs })
    }

    /// Prefixes every unqualified attribute name with `rel.` — used to
    /// disambiguate self-joins (`B` and `B'` in the paper's complex join).
    pub fn qualify(&self, rel: &str) -> Schema {
        Schema {
            attrs: self
                .attrs
                .iter()
                .map(|a| {
                    let name = if a.name.contains('.') {
                        a.name.clone()
                    } else {
                        format!("{rel}.{}", a.name)
                    };
                    Attribute { name, ty: a.ty }
                })
                .collect(),
        }
    }

    /// Do two schemas agree on types (attribute names may differ), as
    /// required by union and difference?
    pub fn compatible_with(&self, other: &Schema) -> bool {
        self.attrs.len() == other.attrs.len()
            && self
                .attrs
                .iter()
                .zip(&other.attrs)
                .all(|(a, b)| a.ty == b.ty)
    }
}

/// Fluent schema builder.
pub struct SchemaBuilder {
    attrs: Vec<Attribute>,
}

impl SchemaBuilder {
    /// Adds an integer attribute.
    pub fn int(mut self, name: &str) -> Self {
        self.attrs.push(Attribute::new(name, ValueType::Int));
        self
    }

    /// Adds a string attribute.
    pub fn str(mut self, name: &str) -> Self {
        self.attrs.push(Attribute::new(name, ValueType::Str));
        self
    }

    /// Adds a boolean attribute.
    pub fn bool(mut self, name: &str) -> Self {
        self.attrs.push(Attribute::new(name, ValueType::Bool));
        self
    }

    /// Adds a fixed time point attribute.
    pub fn time(mut self, name: &str) -> Self {
        self.attrs.push(Attribute::new(name, ValueType::Time));
        self
    }

    /// Adds an ongoing time point attribute.
    pub fn point(mut self, name: &str) -> Self {
        self.attrs
            .push(Attribute::new(name, ValueType::OngoingPoint));
        self
    }

    /// Adds an ongoing time interval attribute (e.g. a valid time `VT`).
    pub fn interval(mut self, name: &str) -> Self {
        self.attrs
            .push(Attribute::new(name, ValueType::OngoingInterval));
        self
    }

    /// Finishes the schema.
    pub fn build(self) -> Schema {
        Schema { attrs: self.attrs }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {:?}", a.name, a.ty)?;
        }
        write!(f, ", RT)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bugs_schema() -> Schema {
        Schema::builder().int("BID").str("C").interval("VT").build()
    }

    #[test]
    fn builder_and_lookup() {
        let s = bugs_schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of("BID").unwrap(), 0);
        assert_eq!(s.index_of("VT").unwrap(), 2);
        assert!(matches!(
            s.index_of("nope"),
            Err(SchemaError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn qualified_suffix_lookup() {
        let s = bugs_schema().qualify("B");
        assert_eq!(s.attrs()[0].name, "B.BID");
        // Unqualified lookup still works when unambiguous.
        assert_eq!(s.index_of("BID").unwrap(), 0);
        assert_eq!(s.index_of("B.BID").unwrap(), 0);
    }

    #[test]
    fn ambiguous_lookup_fails() {
        let s = bugs_schema()
            .qualify("B")
            .product(&bugs_schema().qualify("P"));
        assert!(matches!(s.index_of("BID"), Err(SchemaError::Ambiguous(_))));
        assert_eq!(s.index_of("P.BID").unwrap(), 3);
    }

    #[test]
    fn product_concatenates() {
        let s = bugs_schema().product(&bugs_schema());
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn project_selects_attrs() {
        let s = bugs_schema().project(&[2, 0]).unwrap();
        assert_eq!(s.attrs()[0].name, "VT");
        assert_eq!(s.attrs()[1].name, "BID");
        assert!(bugs_schema().project(&[9]).is_err());
    }

    #[test]
    fn compatibility_ignores_names() {
        let a = Schema::builder().int("x").str("y").build();
        let b = Schema::builder().int("p").str("q").build();
        let c = Schema::builder().str("p").int("q").build();
        assert!(a.compatible_with(&b));
        assert!(!a.compatible_with(&c));
    }

    #[test]
    fn display_mentions_rt() {
        let s = bugs_schema();
        assert!(s.to_string().ends_with(", RT)"));
    }
}
