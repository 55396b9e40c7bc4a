//! `matryoshka-check`: validate nested-parallel IR programs without
//! executing them.
//!
//! Runs the parsing front-end and the static analyzer
//! (`matryoshka_ir::analyze`) over program files and renders any `MAT0xx`
//! diagnostics caret-style. No engine job is launched.
//!
//! ```text
//! matryoshka-check [OPTIONS] FILE...
//!
//!   --sources a,b,c      input bag names (default: derived from source(..) uses)
//!   --dialect NAME       matryoshka (default) | diql
//!   --explain            run the plan-rewrite pass (hoist/CSE/DCE, as the
//!                        lowering does for every job) and print the
//!                        before/after plan trees plus one line per applied
//!                        rewrite with its safety justification; no engine
//!                        job is launched
//!   -h, --help           print usage
//! ```
//!
//! Exit status: 0 if every program is clean (warnings allowed), 1 if any
//! program has an error-severity diagnostic or fails to parse, 2 on usage
//! or I/O errors.

use std::process::ExitCode;

use matryoshka::core::PlanRewriteConfig;
use matryoshka::ir::analyze::plan::rewrite_plan;
use matryoshka::ir::pretty::{plan_tree, render_diagnostics};
use matryoshka::ir::{analyze, parse_program, parsing_phase, Dialect};

const USAGE: &str = "usage: matryoshka-check [--sources a,b,c] \
[--dialect matryoshka|diql] [--explain] FILE...";

struct Options {
    files: Vec<String>,
    sources: Option<Vec<String>>,
    dialect: Dialect,
    explain: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts =
        Options { files: Vec::new(), sources: None, dialect: Dialect::Matryoshka, explain: false };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--explain" => opts.explain = true,
            "--sources" => {
                let v = it.next().ok_or("--sources needs a comma-separated list")?;
                opts.sources = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--dialect" => {
                opts.dialect = match it.next().map(String::as_str) {
                    Some("matryoshka") => Dialect::Matryoshka,
                    Some("diql") => Dialect::DiqlLike,
                    other => return Err(format!("unknown dialect {other:?}")),
                };
            }
            "-h" | "--help" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() {
        return Err("no input files".into());
    }
    Ok(opts)
}

/// Render a plan tree indented under a heading.
fn print_tree(heading: &str, tree: &str) {
    println!("  {heading}:");
    for line in tree.lines() {
        println!("    {line}");
    }
}

/// `--explain`: run the parsing phase and the plan-rewrite pass and report
/// the before/after plan with one line per applied rewrite, including the
/// safety justification the pass proved.
fn explain_program(
    label: &str,
    ast: &matryoshka::ir::ast::Expr,
    sources: &[&str],
    dialect: Dialect,
) {
    let lowered = match parsing_phase(ast, sources, dialect) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{label}: parsing phase failed: {e}");
            return;
        }
    };
    let rewrite = rewrite_plan(&lowered, &PlanRewriteConfig);
    println!("plan: {label}");
    print_tree("before", &plan_tree(&lowered));
    if rewrite.rewrites.is_empty() {
        println!("  rewrites: none apply");
        return;
    }
    println!("  rewrites:");
    for r in &rewrite.rewrites {
        println!("    {r}");
    }
    print_tree("after", &plan_tree(&rewrite.expr));
}

/// Check one program text; prints per-program outcome and returns whether
/// it is free of error-severity diagnostics. With `explain`, clean programs
/// also get a plan-rewrite report.
fn check_program(
    label: &str,
    src: &str,
    sources: &[String],
    dialect: Dialect,
    explain: bool,
) -> bool {
    let ast = match parse_program(src) {
        Ok(ast) => ast,
        Err(e) => {
            eprintln!("{label}: parse error: {e}");
            return false;
        }
    };
    let derived;
    let source_refs: Vec<&str> = if sources.is_empty() {
        derived = analyze::source_names(&ast);
        derived.iter().map(String::as_str).collect()
    } else {
        sources.iter().map(String::as_str).collect()
    };
    let analysis = matryoshka::ir::analyze(&ast, &source_refs, dialect);
    if !analysis.diagnostics.is_empty() {
        eprint!("{label}:\n{}", render_diagnostics(src, &analysis.diagnostics));
    }
    if analysis.is_ok() {
        println!(
            "ok: {label} ({}, inputs: {})",
            analysis.program_ty,
            if source_refs.is_empty() { "none".to_string() } else { source_refs.join(", ") }
        );
        if explain {
            explain_program(label, &ast, &source_refs, dialect);
        }
        true
    } else {
        false
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut all_ok = true;
    for file in &opts.files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::from(2);
            }
        };
        let explicit = opts.sources.clone().unwrap_or_default();
        all_ok &= check_program(file, &src, &explicit, opts.dialect, opts.explain);
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
