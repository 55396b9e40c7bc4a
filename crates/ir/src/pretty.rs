//! Printers for nested-parallel programs and analyzer output:
//!
//! - [`to_source`]: a *re-parseable* rendering in the [`crate::syntax`]
//!   grammar (round-trips through `parse_program` for programs in the text
//!   dialect — the nesting primitives have no surface syntax), and
//!   [`snippet`], its one-line form for diagnostics;
//! - [`plan_tree`]: one operator per line, the before/after view of the
//!   Listing 1 -> Listing 2 rewrite and of the plan rewrites;
//! - [`render_diagnostics`]: compiler-style caret rendering of analyzer
//!   diagnostics against the original source text.

use std::fmt::Write as _;

use crate::analyze::{Diagnostic, Diagnostics};
use crate::ast::{Expr, UnOp};
use crate::value::Value;

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Render `e` in the concrete text grammar of [`crate::syntax`], such that
/// `parse_program(to_source(e))` yields `e` again (modulo spans) for any
/// program expressible in that grammar. Compound expressions are always
/// parenthesized — parentheses are pure grouping, so they add no AST nodes.
///
/// The parsing-phase primitives (`GroupByKeyIntoNestedBag`,
/// `MapWithLiftedUdf`) have no surface syntax; they render as pseudo-calls
/// that do not re-parse.
pub fn to_source(e: &Expr) -> String {
    let mut out = String::new();
    src(e, &mut out);
    out
}

fn src(e: &Expr, out: &mut String) {
    match e {
        Expr::Spanned(_, inner) => src(inner, out),
        Expr::Const(v) => src_const(v, out),
        Expr::Var(n) => out.push_str(n),
        Expr::Source(n) => {
            let _ = write!(out, "source({n})");
        }
        Expr::Tuple(items) => {
            out.push('(');
            for (i, x) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                src(x, out);
            }
            out.push(')');
        }
        Expr::Proj(x, i) => {
            out.push('(');
            src(x, out);
            let _ = write!(out, ").{i}");
        }
        Expr::Bin(op, a, b) => {
            out.push('(');
            src(a, out);
            let _ = write!(out, " {} ", op.symbol());
            src(b, out);
            out.push(')');
        }
        Expr::Un(op, a) => match op {
            UnOp::ToDouble => {
                out.push_str("toDouble(");
                src(a, out);
                out.push(')');
            }
            UnOp::Not | UnOp::Neg => {
                out.push('(');
                out.push(if matches!(op, UnOp::Not) { '!' } else { '-' });
                src(a, out);
                out.push(')');
            }
        },
        Expr::Let(n, v, b) => {
            let _ = write!(out, "(let {n} = ");
            src(v, out);
            out.push_str(" in ");
            src(b, out);
            out.push(')');
        }
        Expr::If(c, t, el) => {
            out.push_str("(if ");
            src(c, out);
            out.push_str(" then ");
            src(t, out);
            out.push_str(" else ");
            src(el, out);
            out.push(')');
        }
        Expr::Loop { init, cond, step, result } => {
            out.push_str("(loop (");
            for (i, (n, x)) in init.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{n} = ");
                src(x, out);
            }
            out.push_str(") while ");
            src(cond, out);
            out.push_str(" do (");
            for (i, x) in step.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                src(x, out);
            }
            out.push_str(") yield ");
            src(result, out);
            out.push(')');
        }
        Expr::Map(x, l) => src_call1(out, "map", x, &l.param, &l.body),
        Expr::Filter(x, l) => src_call1(out, "filter", x, &l.param, &l.body),
        Expr::FlatMapTuple(x, l) => src_call1(out, "flatMap", x, &l.param, &l.body),
        Expr::GroupByKey(x) => src_call0(out, "groupByKey", x),
        Expr::Distinct(x) => src_call0(out, "distinct", x),
        Expr::Count(x) => src_call0(out, "count", x),
        Expr::Cache(x) => src_call0(out, "cache", x),
        Expr::ReduceByKey(x, l2) => {
            out.push_str("reduceByKey(");
            src(x, out);
            let _ = write!(out, ", ({}, {}) => ", l2.a, l2.b);
            src(&l2.body, out);
            out.push(')');
        }
        Expr::Fold(x, z, l2) => {
            out.push_str("fold(");
            src(x, out);
            out.push_str(", ");
            src(z, out);
            let _ = write!(out, ", ({}, {}) => ", l2.a, l2.b);
            src(&l2.body, out);
            out.push(')');
        }
        Expr::Join(a, b) | Expr::Union(a, b) => {
            out.push_str(if matches!(e, Expr::Join(..)) { "join(" } else { "union(" });
            src(a, out);
            out.push_str(", ");
            src(b, out);
            out.push(')');
        }
        // Pseudo-syntax: the primitives exist only after the parsing phase.
        Expr::GroupByKeyIntoNestedBag(x) => src_call0(out, "groupByKeyIntoNestedBag", x),
        Expr::MapWithLiftedUdf { input, udf, .. } => {
            src_call1(out, "mapWithLiftedUDF", input, &udf.param, &udf.body)
        }
    }
}

fn src_const(v: &Value, out: &mut String) {
    match v {
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Long(x) => {
            let _ = write!(out, "{x}");
        }
        // Debug keeps the decimal point (`1.0`, not `1`), so the literal
        // re-parses as a Double.
        Value::Double(x) => {
            let _ = write!(out, "{x:?}");
        }
        Value::Str(s) => {
            let _ = write!(out, "\"{s}\"");
        }
        // Unit and tuple literals have no surface syntax; Display is a
        // best-effort rendering for snippets.
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

fn src_call0(out: &mut String, name: &str, x: &Expr) {
    let _ = write!(out, "{name}(");
    src(x, out);
    out.push(')');
}

fn src_call1(out: &mut String, name: &str, x: &Expr, param: &str, body: &Expr) {
    let _ = write!(out, "{name}(");
    src(x, out);
    let _ = write!(out, ", {param} => ");
    src(body, out);
    out.push(')');
}

/// A one-line, whitespace-collapsed [`to_source`] rendering of `e`, cut to
/// 72 characters, for diagnostics.
pub fn snippet(e: &Expr) -> String {
    let s = to_source(e);
    let s = s.split_whitespace().collect::<Vec<_>>().join(" ");
    if s.chars().count() > 72 {
        let mut t: String = s.chars().take(72).collect();
        t.push('…');
        t
    } else {
        s
    }
}

/// Render `e` as an indented operator tree, one node per line — the format
/// `matryoshka-check --explain` prints for before/after plans. Spans are
/// transparent; lambda parameters are shown on the operator line; loop
/// slots are labelled (`init`, `while`, `step`, `yield`).
pub fn plan_tree(e: &Expr) -> String {
    let mut out = String::new();
    tree(e, 0, &mut out);
    out
}

fn tree_line(out: &mut String, depth: usize, label: &str) {
    indent(out, depth);
    out.push_str(label);
    out.push('\n');
}

fn tree(e: &Expr, depth: usize, out: &mut String) {
    match e.unspanned() {
        Expr::Const(v) => tree_line(out, depth, &format!("const {v}")),
        Expr::Var(n) => tree_line(out, depth, &format!("var {n}")),
        Expr::Source(n) => tree_line(out, depth, &format!("source {n}")),
        Expr::Tuple(items) => {
            tree_line(out, depth, "tuple");
            items.iter().for_each(|x| tree(x, depth + 1, out));
        }
        Expr::Proj(x, i) => {
            tree_line(out, depth, &format!("proj .{i}"));
            tree(x, depth + 1, out);
        }
        Expr::Bin(op, a, b) => {
            tree_line(out, depth, &format!("bin {}", op.symbol()));
            tree(a, depth + 1, out);
            tree(b, depth + 1, out);
        }
        Expr::Un(op, a) => {
            let name = match op {
                UnOp::Not => "not",
                UnOp::Neg => "neg",
                UnOp::ToDouble => "toDouble",
            };
            tree_line(out, depth, &format!("un {name}"));
            tree(a, depth + 1, out);
        }
        Expr::Let(n, v, b) => {
            tree_line(out, depth, &format!("let {n}"));
            tree(v, depth + 1, out);
            tree_line(out, depth, "in");
            tree(b, depth + 1, out);
        }
        Expr::If(c, t, el) => {
            tree_line(out, depth, "if");
            tree(c, depth + 1, out);
            tree_line(out, depth, "then");
            tree(t, depth + 1, out);
            tree_line(out, depth, "else");
            tree(el, depth + 1, out);
        }
        Expr::Loop { init, cond, step, result } => {
            tree_line(out, depth, "loop");
            for (n, x) in init {
                tree_line(out, depth + 1, &format!("init {n}"));
                tree(x, depth + 2, out);
            }
            tree_line(out, depth + 1, "while");
            tree(cond, depth + 2, out);
            for (i, x) in step.iter().enumerate() {
                tree_line(out, depth + 1, &format!("step {}", init[i].0));
                tree(x, depth + 2, out);
            }
            tree_line(out, depth + 1, "yield");
            tree(result, depth + 2, out);
        }
        Expr::Map(x, l) => {
            tree_line(out, depth, &format!("map λ{}", l.param));
            tree(x, depth + 1, out);
            tree(&l.body, depth + 1, out);
        }
        Expr::Filter(x, l) => {
            tree_line(out, depth, &format!("filter λ{}", l.param));
            tree(x, depth + 1, out);
            tree(&l.body, depth + 1, out);
        }
        Expr::FlatMapTuple(x, l) => {
            tree_line(out, depth, &format!("flatMap λ{}", l.param));
            tree(x, depth + 1, out);
            tree(&l.body, depth + 1, out);
        }
        Expr::GroupByKey(x) => {
            tree_line(out, depth, "groupByKey");
            tree(x, depth + 1, out);
        }
        Expr::ReduceByKey(x, l2) => {
            tree_line(out, depth, &format!("reduceByKey λ({}, {})", l2.a, l2.b));
            tree(x, depth + 1, out);
        }
        Expr::Join(a, b) => {
            tree_line(out, depth, "join");
            tree(a, depth + 1, out);
            tree(b, depth + 1, out);
        }
        Expr::Distinct(x) => {
            tree_line(out, depth, "distinct");
            tree(x, depth + 1, out);
        }
        Expr::Union(a, b) => {
            tree_line(out, depth, "union");
            tree(a, depth + 1, out);
            tree(b, depth + 1, out);
        }
        Expr::Count(x) => {
            tree_line(out, depth, "count");
            tree(x, depth + 1, out);
        }
        Expr::Fold(x, z, l2) => {
            tree_line(out, depth, &format!("fold λ({}, {})", l2.a, l2.b));
            tree(x, depth + 1, out);
            tree(z, depth + 1, out);
        }
        Expr::Cache(x) => {
            tree_line(out, depth, "cache");
            tree(x, depth + 1, out);
        }
        Expr::GroupByKeyIntoNestedBag(x) => {
            tree_line(out, depth, "groupByKeyIntoNestedBag");
            tree(x, depth + 1, out);
        }
        Expr::MapWithLiftedUdf { input, udf, closures } => {
            let cl = if closures.is_empty() {
                String::new()
            } else {
                format!(" [closures: {}]", closures.join(", "))
            };
            tree_line(out, depth, &format!("mapWithLiftedUDF λ{}{}", udf.param, cl));
            tree(input, depth + 1, out);
            tree(&udf.body, depth + 1, out);
        }
        Expr::Spanned(..) => unreachable!("unspanned() peels spans"),
    }
}

/// Render one analyzer diagnostic against its source text, compiler-style:
/// a header line, the offending source line, and a caret run under the
/// span. Span-less diagnostics fall back to their `Display` form.
fn render_diagnostic(source: &str, d: &Diagnostic) -> String {
    let mut out = String::new();
    let Some(sp) = d.span else {
        let _ = writeln!(out, "{d}");
        return out;
    };
    let start = sp.start.min(source.len());
    let line_start = source[..start].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let line_end = source[start..].find('\n').map(|i| start + i).unwrap_or(source.len());
    let line_no = source[..start].bytes().filter(|b| *b == b'\n').count() + 1;
    let col = start - line_start;
    // Carets cover the span, clamped to the first line it touches.
    let width = sp.end.min(line_end).saturating_sub(start).max(1);
    let gutter = line_no.to_string();
    let pad = " ".repeat(gutter.len());
    let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    let _ = writeln!(out, "{pad}--> bytes {}..{} (line {line_no})", sp.start, sp.end);
    let _ = writeln!(out, "{pad} |");
    let _ = writeln!(out, "{gutter} | {}", &source[line_start..line_end]);
    let _ = writeln!(out, "{pad} | {}{}", " ".repeat(col), "^".repeat(width));
    if let Some(n) = &d.note {
        let _ = writeln!(out, "{pad} = help: {n}");
    }
    out
}

/// Render a whole diagnostics collection with `render_diagnostic`,
/// followed by a one-line summary ("N errors, M warnings").
pub fn render_diagnostics(source: &str, ds: &Diagnostics) -> String {
    let mut out = String::new();
    for d in ds.iter() {
        out.push_str(&render_diagnostic(source, d));
    }
    if !ds.is_empty() {
        let errors = ds.error_count();
        let warnings = ds.len() - errors;
        let _ = writeln!(out, "{errors} error(s), {warnings} warning(s)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Lambda;

    #[test]
    fn closures_are_shown_on_the_lifted_primitive() {
        let prog = Expr::let_(
            "w",
            Expr::long(2),
            Expr::Map(
                Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
                Lambda::new(
                    "g",
                    Expr::bin(
                        crate::ast::BinOp::Mul,
                        Expr::var("w"),
                        Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1))),
                    ),
                ),
            ),
        );
        let parsed =
            crate::parse::parsing_phase(&prog, &["xs"], crate::parse::Dialect::Matryoshka).unwrap();
        assert!(plan_tree(&parsed).contains("[closures: w]"));
    }

    #[test]
    fn to_source_round_trips_through_the_parser() {
        let cases = [
            "map(groupByKey(source(visits)), g => (g.0, count(g.1)))",
            "let x = 2 in if x > 1 then x * 3 else 0 - x",
            "loop (i = 0, acc = 1) while i < 5 do (i + 1, acc * 2) yield acc",
            "fold(filter(source(xs), x => !(x == 1)), 0, (a, b) => a + b)",
            "join(source(xs), distinct(union(source(ys), source(ys))))",
            "toDouble(count(source(xs))) / 2.5",
        ];
        for case in cases {
            let ast = crate::syntax::parse_program(case).unwrap().strip_spans();
            let rendered = to_source(&ast);
            let reparsed = crate::syntax::parse_program(&rendered)
                .unwrap_or_else(|e| panic!("{rendered} -> {e}"))
                .strip_spans();
            assert_eq!(reparsed, ast, "case `{case}` rendered as `{rendered}`");
        }
    }

    #[test]
    fn caret_rendering_points_at_the_span() {
        let src_text = "map(source(xs), x => x + y)";
        let e = crate::syntax::parse_program(src_text).unwrap();
        let a = crate::analyze::analyze(&e, &["xs"], crate::parse::Dialect::Matryoshka);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == crate::analyze::codes::UNBOUND_VAR)
            .expect("unbound `y`");
        let rendered = render_diagnostic(src_text, d);
        assert!(rendered.contains("error[MAT001]"), "{rendered}");
        assert!(rendered.contains(src_text), "{rendered}");
        // The caret line has `^` exactly under `y` (column 25).
        let caret_line = rendered.lines().nth(4).expect("caret line");
        assert_eq!(caret_line.find('^'), Some(src_text.find('y').unwrap() + 4), "{rendered}");
        let all = render_diagnostics(src_text, &a.diagnostics);
        assert!(all.contains("error(s)"), "{all}");
    }
}
