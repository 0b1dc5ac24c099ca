//! Recursive-descent parser for OngoingQL.
//!
//! ```text
//! query      := select ( (UNION | EXCEPT) select )*
//! select     := SELECT items FROM table_ref (JOIN table_ref ON expr)* (WHERE expr)?
//! items      := '*' | item (',' item)*
//! item       := expr (AS ident)?
//! table_ref  := ident (AS ident)?
//! expr       := and_expr (OR and_expr)*
//! and_expr   := unary (AND unary)*
//! unary      := NOT unary | comparison
//! comparison := operand ( cmp_op operand | temporal_kw operand )?
//! operand    := literal | function | column | '(' expr ')'
//! function   := INTERSECTION '(' expr ',' expr ')'
//!             | START '(' expr ')' | END '(' expr ')'
//!             | PERIOD '(' point ',' point ')'
//! literal    := Int | 'string' | TRUE | FALSE | NOW | DATE 'YYYY-MM-DD'
//! ```
//!
//! `PERIOD(a, b)` builds an ongoing interval literal from two constant time
//! points (dates or `NOW`); temporal keywords are the Table II predicates.

use crate::sql::ast::{AstExpr, Query, SelectItem, SelectStmt, Statement, TableRef};
use crate::sql::token::{lex, Token, TokenKind};
use ongoing_core::allen::TemporalPredicate;
use ongoing_core::date::{civil_from_days, days_from_civil, Civil};
use ongoing_core::{OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::{CmpOp, Value};
use std::fmt;

/// Parse error with byte position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset in the query text.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// Most boolean terms (operands of `AND`, `OR` and `NOT`, parenthesized
/// or not, function arguments included) one statement may hold. Lowering,
/// predicate compilation, evaluation and drop all recurse over the
/// expression tree, so a longer chain or deeper nesting is a parse error
/// rather than a stack overflow.
const MAX_TERMS: usize = 128;

/// Most relations (`FROM` and `JOIN` tables, across set operations) one
/// statement may name, for the same reason: the plan passes recurse over
/// the operator tree.
const MAX_RELATIONS: usize = 16;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Boolean terms parsed so far (bounded by [`MAX_TERMS`]).
    terms: usize,
    /// Relations named so far (bounded by [`MAX_RELATIONS`]).
    relations: usize,
}

/// Parses a full OngoingQL query.
pub fn parse(input: &str) -> PResult<Query> {
    let mut p = Parser::new(input)?;
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parses a top-level OngoingQL statement: a query, or
/// `ANALYZE [table]`.
pub fn parse_statement(input: &str) -> PResult<Statement> {
    let mut p = Parser::new(input)?;
    if p.eat_kw("EXPLAIN") {
        let analyze = p.eat_kw("ANALYZE");
        let query = p.query()?;
        p.expect_eof()?;
        return Ok(Statement::Explain { analyze, query });
    }
    if p.eat_kw("ANALYZE") {
        let table = if matches!(p.peek().kind, TokenKind::Eof) {
            None
        } else {
            Some(p.ident()?)
        };
        p.expect_eof()?;
        return Ok(Statement::Analyze(table));
    }
    let q = p.query()?;
    p.expect_eof()?;
    Ok(Statement::Query(q))
}

impl Parser {
    fn new(input: &str) -> PResult<Parser> {
        let tokens = lex(input).map_err(|e| ParseError {
            message: e.message,
            at: e.at,
        })?;
        Ok(Parser {
            tokens,
            pos: 0,
            terms: 0,
            relations: 0,
        })
    }

    /// Fails once a bounded construct's count `n` passes `max`.
    fn limit(&self, n: usize, max: usize, what: &str) -> PResult<()> {
        if n > max {
            return self.err(format!("statement too large: more than {max} {what}"));
        }
        Ok(())
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        self.pos += 1;
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            message: message.into(),
            at: self.peek().at,
        })
    }

    /// Consumes a keyword (case-insensitive) if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let TokenKind::Word(w) = &self.peek().kind {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> PResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found `{}`", self.peek().kind))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> PResult<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            self.err(format!("expected `{kind}`, found `{}`", self.peek().kind))
        }
    }

    fn expect_eof(&mut self) -> PResult<()> {
        if matches!(self.peek().kind, TokenKind::Eof) {
            Ok(())
        } else {
            self.err(format!("unexpected trailing input `{}`", self.peek().kind))
        }
    }

    /// A bare identifier (rejects reserved words used by the grammar).
    fn ident(&mut self) -> PResult<String> {
        match &self.peek().kind {
            TokenKind::Word(w) if !is_reserved(w) => {
                let w = w.clone();
                self.pos += 1;
                Ok(w)
            }
            other => self.err(format!("expected identifier, found `{other}`")),
        }
    }

    fn query(&mut self) -> PResult<Query> {
        let mut q = Query::Select(self.select()?);
        loop {
            if self.eat_kw("UNION") {
                let rhs = Query::Select(self.select()?);
                q = Query::Union(Box::new(q), Box::new(rhs));
            } else if self.eat_kw("EXCEPT") {
                let rhs = Query::Select(self.select()?);
                q = Query::Except(Box::new(q), Box::new(rhs));
            } else {
                return Ok(q);
            }
        }
    }

    fn select(&mut self) -> PResult<SelectStmt> {
        self.expect_kw("SELECT")?;
        let items = if self.eat(&TokenKind::Star) {
            None
        } else {
            let mut items = vec![self.select_item()?];
            while self.eat(&TokenKind::Comma) {
                items.push(self.select_item()?);
            }
            Some(items)
        };
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        while self.eat_kw("JOIN") {
            let t = self.table_ref()?;
            self.expect_kw("ON")?;
            let on = self.expr()?;
            joins.push((t, on));
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            joins,
            where_clause,
        })
    }

    fn select_item(&mut self) -> PResult<SelectItem> {
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    fn table_ref(&mut self) -> PResult<TableRef> {
        self.relations += 1;
        self.limit(self.relations, MAX_RELATIONS, "relations")?;
        let table = self.ident()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let TokenKind::Word(w) = &self.peek().kind {
            // Bare alias (FROM BugInfo B) — only if not a reserved word.
            if !is_reserved(w) {
                let w = w.clone();
                self.pos += 1;
                Some(w)
            } else {
                None
            }
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    fn expr(&mut self) -> PResult<AstExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = AstExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> PResult<AstExpr> {
        let mut lhs = self.unary()?;
        while self.eat_kw("AND") {
            let rhs = self.unary()?;
            lhs = AstExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<AstExpr> {
        self.terms += 1;
        self.limit(self.terms, MAX_TERMS, "boolean terms")?;
        if self.eat_kw("NOT") {
            return Ok(AstExpr::Not(Box::new(self.unary()?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> PResult<AstExpr> {
        let lhs = self.operand()?;
        let cmp = match &self.peek().kind {
            TokenKind::Eq => Some(CmpOp::Eq),
            TokenKind::Ne => Some(CmpOp::Ne),
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = cmp {
            self.pos += 1;
            let rhs = self.operand()?;
            return Ok(AstExpr::Cmp(op, Box::new(lhs), Box::new(rhs)));
        }
        if let TokenKind::Word(w) = &self.peek().kind {
            if let Some(pred) = temporal_keyword(w) {
                self.pos += 1;
                let rhs = self.operand()?;
                return Ok(AstExpr::Temporal(pred, Box::new(lhs), Box::new(rhs)));
            }
        }
        Ok(lhs)
    }

    fn operand(&mut self) -> PResult<AstExpr> {
        match self.peek().kind.clone() {
            TokenKind::LParen => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Int(v) => {
                self.pos += 1;
                Ok(AstExpr::Lit(Value::Int(v)))
            }
            TokenKind::Str(s) => {
                self.pos += 1;
                Ok(AstExpr::Lit(Value::str(&s)))
            }
            TokenKind::Word(w) if w.eq_ignore_ascii_case("TRUE") => {
                self.pos += 1;
                Ok(AstExpr::Lit(Value::Bool(true)))
            }
            TokenKind::Word(w) if w.eq_ignore_ascii_case("FALSE") => {
                self.pos += 1;
                Ok(AstExpr::Lit(Value::Bool(false)))
            }
            TokenKind::Word(w) if w.eq_ignore_ascii_case("NOW") => {
                self.pos += 1;
                Ok(AstExpr::Lit(Value::Point(OngoingPoint::now())))
            }
            TokenKind::Word(w) if w.eq_ignore_ascii_case("DATE") => {
                self.pos += 1;
                let t = self.date_literal()?;
                Ok(AstExpr::Lit(Value::Time(t)))
            }
            TokenKind::Word(w) if w.eq_ignore_ascii_case("PERIOD") => {
                self.pos += 1;
                self.expect(&TokenKind::LParen)?;
                let ts = self.point_literal()?;
                self.expect(&TokenKind::Comma)?;
                let te = self.point_literal()?;
                self.expect(&TokenKind::RParen)?;
                Ok(AstExpr::Lit(Value::Interval(OngoingInterval::new(ts, te))))
            }
            TokenKind::Word(w) if w.eq_ignore_ascii_case("INTERSECTION") => {
                self.pos += 1;
                self.expect(&TokenKind::LParen)?;
                let a = self.expr()?;
                self.expect(&TokenKind::Comma)?;
                let b = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(AstExpr::Intersection(Box::new(a), Box::new(b)))
            }
            TokenKind::Word(w) if w.eq_ignore_ascii_case("START") => {
                self.pos += 1;
                self.expect(&TokenKind::LParen)?;
                let a = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(AstExpr::Start(Box::new(a)))
            }
            TokenKind::Word(w) if w.eq_ignore_ascii_case("END") => {
                self.pos += 1;
                self.expect(&TokenKind::LParen)?;
                let a = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(AstExpr::End(Box::new(a)))
            }
            TokenKind::Word(w) if !is_reserved(&w) => {
                self.pos += 1;
                if self.eat(&TokenKind::Dot) {
                    let col = self.ident()?;
                    Ok(AstExpr::Col(Some(w), col))
                } else {
                    Ok(AstExpr::Col(None, w))
                }
            }
            other => self.err(format!("expected expression, found `{other}`")),
        }
    }

    /// A constant time point: `DATE 'YYYY-MM-DD'` or `NOW`.
    fn point_literal(&mut self) -> PResult<OngoingPoint> {
        if self.eat_kw("NOW") {
            return Ok(OngoingPoint::now());
        }
        if self.eat_kw("DATE") {
            return Ok(OngoingPoint::fixed(self.date_literal()?));
        }
        self.err("expected DATE '...' or NOW")
    }

    /// The string payload of a `DATE 'YYYY-MM-DD'` literal.
    fn date_literal(&mut self) -> PResult<TimePoint> {
        let at = self.peek().at;
        match self.next().kind {
            TokenKind::Str(s) => parse_date(&s).ok_or(ParseError {
                message: format!("invalid date `{s}` (expected YYYY-MM-DD)"),
                at,
            }),
            other => Err(ParseError {
                message: format!("expected date string, found `{other}`"),
                at,
            }),
        }
    }
}

fn parse_date(s: &str) -> Option<TimePoint> {
    let mut it = s.split('-');
    let year: i32 = it.next()?.parse().ok()?;
    let month: u8 = it.next()?.parse().ok()?;
    let day: u8 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    // `days_from_civil` normalizes an impossible day (2019-02-31 would
    // become 2019-03-03); only a date that survives the round trip exists.
    let days = days_from_civil(year, month, day);
    let civil = civil_from_days(days);
    (civil == Civil { year, month, day }).then(|| TimePoint::new(days))
}

fn temporal_keyword(w: &str) -> Option<TemporalPredicate> {
    TemporalPredicate::ALL
        .into_iter()
        .find(|p| w.eq_ignore_ascii_case(p.name()))
}

fn is_reserved(w: &str) -> bool {
    const RESERVED: &[&str] = &[
        "SELECT",
        "FROM",
        "WHERE",
        "JOIN",
        "ON",
        "AS",
        "AND",
        "OR",
        "NOT",
        "UNION",
        "EXCEPT",
        "TRUE",
        "FALSE",
        "NOW",
        "DATE",
        "PERIOD",
        "INTERSECTION",
        "START",
        "END",
        "BEFORE",
        "MEETS",
        "OVERLAPS",
        "STARTS",
        "FINISHES",
        "DURING",
        "EQUALS",
    ];
    RESERVED.iter().any(|r| w.eq_ignore_ascii_case(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::date::date;

    #[test]
    fn parses_analyze_statements() {
        assert_eq!(
            parse_statement("ANALYZE").unwrap(),
            Statement::Analyze(None)
        );
        assert_eq!(
            parse_statement("analyze BugInfo").unwrap(),
            Statement::Analyze(Some("BugInfo".to_string()))
        );
        assert!(matches!(
            parse_statement("SELECT * FROM t").unwrap(),
            Statement::Query(_)
        ));
        // Trailing garbage after the table name is rejected.
        assert!(parse_statement("ANALYZE a b").is_err());
    }

    #[test]
    fn parses_the_running_example_query() {
        let q = parse(
            "SELECT B.BID, B.VT, P.PID, L.Name, INTERSECTION(B.VT, L.VT) AS Resp \
             FROM B JOIN P ON B.C = P.C AND B.VT BEFORE P.VT \
             JOIN L ON B.C = L.C AND B.VT OVERLAPS L.VT \
             WHERE B.C = 'Spam filter'",
        )
        .unwrap();
        let Query::Select(s) = q else {
            panic!("single select")
        };
        assert_eq!(s.items.as_ref().unwrap().len(), 5);
        assert_eq!(s.items.as_ref().unwrap()[4].alias.as_deref(), Some("Resp"));
        assert_eq!(s.from.table, "B");
        assert_eq!(s.joins.len(), 2);
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn parses_literals() {
        let q = parse(
            "SELECT * FROM t WHERE vt OVERLAPS PERIOD(DATE '2019-08-01', NOW) \
             AND n = 42 AND s != 'x' AND ok = TRUE AND d < DATE '2019-12-31'",
        )
        .unwrap();
        let Query::Select(s) = q else { panic!() };
        let w = format!("{:?}", s.where_clause.unwrap());
        assert!(w.contains("Overlaps"));
        assert!(w.contains("Interval"));
        // Date parses to the right day tick.
        assert!(parse_date("2019-08-01").unwrap() == date(2019, 8, 1));
    }

    #[test]
    fn impossible_calendar_dates_are_rejected() {
        for bad in [
            "2019-02-29",
            "2019-02-31",
            "2019-04-31",
            "2019-13-01",
            "2019-00-10",
        ] {
            assert_eq!(parse_date(bad), None, "{bad}");
            let sql = format!("SELECT * FROM t WHERE d < DATE '{bad}'");
            let err = parse(&sql).unwrap_err();
            assert!(err.message.contains("invalid date"), "{bad}: {err:?}");
        }
        assert_eq!(parse_date("2020-02-29"), Some(date(2020, 2, 29)));
        assert_eq!(parse_date("2019-12-31"), Some(date(2019, 12, 31)));
    }

    #[test]
    fn parses_set_operations_left_assoc() {
        let q = parse("SELECT * FROM a UNION SELECT * FROM b EXCEPT SELECT * FROM c").unwrap();
        match q {
            Query::Except(l, _) => match *l {
                Query::Union(..) => {}
                other => panic!("expected union on the left, got {other:?}"),
            },
            other => panic!("expected except at the top, got {other:?}"),
        }
    }

    #[test]
    fn bare_and_as_aliases() {
        let q = parse("SELECT * FROM BugInfo B JOIN BugInfo AS B2 ON B.ID = B2.ID").unwrap();
        let Query::Select(s) = q else { panic!() };
        assert_eq!(s.from.binding(), "B");
        assert_eq!(s.joins[0].0.binding(), "B2");
    }

    #[test]
    fn precedence_not_and_or() {
        let q = parse("SELECT * FROM t WHERE NOT a = 1 AND b = 2 OR c = 3").unwrap();
        let Query::Select(s) = q else { panic!() };
        // ((NOT (a=1)) AND (b=2)) OR (c=3)
        match s.where_clause.unwrap() {
            AstExpr::Or(l, _) => match *l {
                AstExpr::And(l2, _) => assert!(matches!(*l2, AstExpr::Not(_))),
                other => panic!("expected AND, got {other:?}"),
            },
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn error_positions_and_messages() {
        let e = parse("SELECT FROM t").unwrap_err();
        assert!(e.message.contains("expected expression"), "{e}");
        let e = parse("SELECT * FROM t WHERE").unwrap_err();
        assert!(e.message.contains("expected expression"), "{e}");
        let e = parse("SELECT * FROM t extra garbage").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
        let e = parse("SELECT * FROM t WHERE vt OVERLAPS PERIOD(DATE 'nope', NOW)").unwrap_err();
        assert!(e.message.contains("invalid date"), "{e}");
    }

    #[test]
    fn start_end_functions() {
        let q = parse("SELECT * FROM t WHERE START(vt) <= NOW AND NOW < END(vt)").unwrap();
        let Query::Select(s) = q else { panic!() };
        let w = format!("{:?}", s.where_clause.unwrap());
        assert!(w.contains("Start"));
        assert!(w.contains("End"));
    }
}
