//! Recursive-descent parser for the benchmark SQL fragment.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query      := SELECT item (, item)* FROM tref (, tref)*
//!               [WHERE pred (AND pred)*] [GROUP BY col (, col)*]
//!               [ORDER BY col [DESC] (, col [DESC])*] [LIMIT int]
//! item       := COUNT ( * ) | COUNT ( DISTINCT col ) | col
//! tref       := ident [ident]          -- table with optional alias
//! col        := ident . ident
//! pred       := col = col
//!             | col = const
//!             | col (< | <= | > | >=) const
//!             | col IN ( SELECT ident FROM ident GROUP BY ident
//!                        HAVING COUNT ( * ) (< | =) int )
//! const      := int | float | string
//! ```

use std::fmt;

use tab_storage::Value;

use crate::ast::{
    CmpOp, ColRef, Insert, Predicate, Query, RangeOp, SelectItem, Statement, TableRef,
};
use crate::lexer::{lex, LexError, Token};

/// Parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Token position (or input byte for lexical errors).
    pub pos: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            pos: e.pos,
            message: e.message,
        }
    }
}

/// Parse a statement: a query or an `INSERT INTO ... VALUES (...)`.
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = if p.at_keyword("INSERT") {
        Statement::Insert(p.insert()?)
    } else {
        Statement::Query(p.query()?)
    };
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing input after statement"));
    }
    Ok(stmt)
}

/// Parse a SQL string in the benchmark fragment.
pub fn parse(input: &str) -> Result<Query, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing input after query"));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Is the current token the given keyword (case-insensitive)?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.at_keyword(kw) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn colref(&mut self) -> Result<ColRef, ParseError> {
        let alias = self.ident()?;
        self.expect(&Token::Dot)?;
        let column = self.ident()?;
        Ok(ColRef { alias, column })
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect_keyword("SELECT")?;
        let mut select = vec![self.select_item()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            select.push(self.select_item()?);
        }
        self.expect_keyword("FROM")?;
        let mut from = vec![self.table_ref()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            from.push(self.table_ref()?);
        }
        let mut predicates = Vec::new();
        if self.eat_keyword("WHERE") {
            predicates.push(self.predicate()?);
            while self.eat_keyword("AND") {
                predicates.push(self.predicate()?);
            }
        }
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.colref()?);
            while self.peek() == Some(&Token::Comma) {
                self.pos += 1;
                group_by.push(self.colref()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let c = self.colref()?;
                let desc = self.eat_keyword("DESC");
                if !desc {
                    self.eat_keyword("ASC");
                }
                order_by.push((c, desc));
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                other => return Err(self.err(format!("expected row count, found {other:?}"))),
            }
        } else {
            None
        };
        Ok(Query {
            select,
            from,
            predicates,
            group_by,
            order_by,
            limit,
        })
    }

    fn insert(&mut self) -> Result<Insert, ParseError> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.ident()?;
        self.expect_keyword("VALUES")?;
        self.expect(&Token::LParen)?;
        let mut values = Vec::new();
        loop {
            if self.at_keyword("NULL") {
                self.pos += 1;
                values.push(Value::Null);
            } else {
                values.push(self.constant()?);
            }
            match self.next() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                other => return Err(self.err(format!("expected , or ), found {other:?}"))),
            }
        }
        Ok(Insert { table, values })
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.at_keyword("COUNT") {
            self.pos += 1;
            self.expect(&Token::LParen)?;
            let item = if self.peek() == Some(&Token::Star) {
                self.pos += 1;
                SelectItem::CountStar
            } else {
                self.expect_keyword("DISTINCT")?;
                SelectItem::CountDistinct(self.colref()?)
            };
            self.expect(&Token::RParen)?;
            Ok(item)
        } else {
            Ok(SelectItem::Column(self.colref()?))
        }
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.ident()?;
        // An alias is any identifier that is not one of the clause
        // keywords that may follow a table reference.
        let alias = match self.peek() {
            Some(Token::Ident(s))
                if !["WHERE", "GROUP", "AND", "ORDER", "LIMIT"]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k)) =>
            {
                self.ident()?
            }
            _ => table.clone(),
        };
        Ok(TableRef { table, alias })
    }

    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        let col = self.colref()?;
        if self.eat_keyword("IN") {
            self.expect(&Token::LParen)?;
            self.expect_keyword("SELECT")?;
            let sub_column = self.ident()?;
            self.expect_keyword("FROM")?;
            let sub_table = self.ident()?;
            self.expect_keyword("GROUP")?;
            self.expect_keyword("BY")?;
            let g = self.ident()?;
            if g != sub_column {
                return Err(self.err("subquery GROUP BY column must match its SELECT column"));
            }
            self.expect_keyword("HAVING")?;
            self.expect_keyword("COUNT")?;
            self.expect(&Token::LParen)?;
            self.expect(&Token::Star)?;
            self.expect(&Token::RParen)?;
            let op = match self.next() {
                Some(Token::Lt) => CmpOp::Lt,
                Some(Token::Eq) => CmpOp::Eq,
                other => return Err(self.err(format!("expected < or =, found {other:?}"))),
            };
            let k = match self.next() {
                Some(Token::Int(i)) => i,
                other => return Err(self.err(format!("expected integer, found {other:?}"))),
            };
            self.expect(&Token::RParen)?;
            Ok(Predicate::InFrequency {
                col,
                sub_table,
                sub_column,
                op,
                k,
            })
        } else if let Some(op) = self.range_op() {
            let v = self.constant()?;
            Ok(Predicate::ConstRange(col, op, v))
        } else {
            self.expect(&Token::Eq)?;
            match self.peek() {
                Some(Token::Ident(_)) => Ok(Predicate::JoinEq(col, self.colref()?)),
                Some(_) => Ok(Predicate::ConstEq(col, self.constant()?)),
                None => Err(self.err("expected constant or column, found end of input")),
            }
        }
    }

    /// Consume a range operator if one is next.
    fn range_op(&mut self) -> Option<RangeOp> {
        let op = match self.peek()? {
            Token::Lt => RangeOp::Lt,
            Token::Le => RangeOp::Le,
            Token::Gt => RangeOp::Gt,
            Token::Ge => RangeOp::Ge,
            _ => return None,
        };
        self.pos += 1;
        Some(op)
    }

    /// Parse a constant literal.
    fn constant(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Value::Int(i)),
            Some(Token::Float(f)) => Ok(Value::Float(f)),
            Some(Token::Str(s)) => Ok(Value::str(s)),
            other => Err(self.err(format!("expected constant, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_example_1() {
        let sql = "SELECT t.lineage, COUNT(DISTINCT t2.nref_id) \
                   FROM source s, taxonomy t, taxonomy t2 \
                   WHERE t.nref_id = s.nref_id AND t.lineage = t2.lineage \
                   AND s.p_name = 'Simian Virus 40' \
                   GROUP BY t.lineage";
        let q = parse(sql).unwrap();
        assert_eq!(q.from.len(), 3);
        assert_eq!(q.predicates.len(), 3);
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.from[2].table, "taxonomy");
        assert_eq!(q.from[2].alias, "t2");
    }

    #[test]
    fn parses_in_frequency() {
        let sql = "SELECT r.a, COUNT(*) FROM rel r, s s \
                   WHERE r.a = s.b \
                   AND r.a IN (SELECT a FROM rel GROUP BY a HAVING COUNT(*) < 4) \
                   GROUP BY r.a";
        let q = parse(sql).unwrap();
        match &q.predicates[1] {
            Predicate::InFrequency { op, k, .. } => {
                assert_eq!(*op, CmpOp::Lt);
                assert_eq!(*k, 4);
            }
            other => panic!("expected InFrequency, got {other:?}"),
        }
    }

    #[test]
    fn parses_range_predicates() {
        let q = parse(
            "SELECT t.a, COUNT(*) FROM t WHERE t.a >= 10 AND t.b < 'm' AND t.c <= 2.5              GROUP BY t.a",
        )
        .unwrap();
        assert_eq!(q.predicates.len(), 3);
        match &q.predicates[0] {
            Predicate::ConstRange(_, op, v) => {
                assert_eq!(*op, RangeOp::Ge);
                assert_eq!(v.as_int(), Some(10));
            }
            other => panic!("expected range, got {other:?}"),
        }
        // Round-trips through Display.
        assert_eq!(parse(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn parses_without_alias() {
        let q = parse("SELECT t.a FROM t WHERE t.a = 1").unwrap();
        assert_eq!(q.from[0].alias, "t");
        assert_eq!(q.predicates.len(), 1);
    }

    #[test]
    fn case_insensitive_keywords() {
        assert!(parse("select t.a from t group by t.a").is_ok());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("SELECT t.a FROM t extra junk tokens ,").is_err());
    }

    #[test]
    fn rejects_mismatched_subquery_columns() {
        let sql = "SELECT r.a FROM r WHERE r.a IN \
                   (SELECT a FROM r GROUP BY b HAVING COUNT(*) < 4)";
        assert!(parse(sql).is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(parse("").is_err());
        assert!(parse("SELECT").is_err());
    }

    #[test]
    fn parses_order_by_and_limit() {
        let q =
            parse("SELECT t.a, COUNT(*) FROM t GROUP BY t.a ORDER BY t.a DESC LIMIT 10").unwrap();
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].1, "DESC flag");
        assert_eq!(q.limit, Some(10));
        assert_eq!(parse(&q.to_string()).unwrap(), q);
        // ASC is accepted and means not-descending.
        let q2 = parse("SELECT t.a FROM t ORDER BY t.a ASC LIMIT 3").unwrap();
        assert!(!q2.order_by[0].1);
        assert!(parse("SELECT t.a FROM t LIMIT x").is_err());
    }

    #[test]
    fn parses_insert() {
        let s = parse_statement("INSERT INTO protein VALUES (7, 'name', NULL, 3.5)").unwrap();
        match s {
            Statement::Insert(i) => {
                assert_eq!(i.table, "protein");
                assert_eq!(i.values.len(), 4);
                assert_eq!(i.values[2], Value::Null);
                // Round trip.
                let s2 = parse_statement(&i.to_string()).unwrap();
                assert_eq!(s2, Statement::Insert(i));
            }
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn statement_dispatches_to_query() {
        let s = parse_statement("SELECT t.a FROM t").unwrap();
        assert!(matches!(s, Statement::Query(_)));
        assert!(parse_statement("INSERT INTO t VALUES (").is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        let sql = "SELECT t.lineage, COUNT(DISTINCT t2.nref_id) \
                   FROM source s, taxonomy t, taxonomy t2 \
                   WHERE t.nref_id = s.nref_id AND s.p_name = 'Simian Virus 40' \
                   GROUP BY t.lineage";
        let q = parse(sql).unwrap();
        let q2 = parse(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }
}
