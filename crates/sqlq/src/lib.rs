//! # tab-sqlq
//!
//! AST, lexer, and parser for the SQL fragment used by the benchmark
//! workloads of *"Goals and Benchmarks for Autonomic Configuration
//! Recommenders"* (SIGMOD 2005): select-project-join queries with simple
//! aggregates, equality predicates, and at most one level of nesting
//! (the `IN (SELECT … GROUP BY … HAVING COUNT(*) …)` frequency filter).
//!
//! Queries render deterministically via `Display` and round-trip through
//! [`parse`] (property-tested in `tests/`).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ast;
mod lexer;
mod parser;

pub use ast::{CmpOp, ColRef, Insert, Predicate, Query, RangeOp, SelectItem, Statement, TableRef};
pub use parser::{parse, parse_statement, ParseError};
