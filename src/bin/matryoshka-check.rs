//! `matryoshka-check`: validate nested-parallel IR programs without
//! executing them.
//!
//! Runs the parsing front-end and the static analyzer
//! (`matryoshka_ir::analyze`) over program files and renders any `MAT0xx`
//! diagnostics caret-style. No engine job is launched.
//!
//! ```text
//! matryoshka-check [OPTIONS] [FILE...]
//!
//!   --builtin            also check the tasks crate's built-in IR workloads
//!   --sources a,b,c      input bag names (default: derived from source(..) uses)
//!   --dialect NAME       matryoshka (default) | diql
//!   --explain            run the plan-rewrite pass (hoist/CSE/DCE, as the
//!                        lowering does for every job) and print the
//!                        before/after plan trees plus one line per applied
//!                        rewrite with its safety justification; no engine
//!                        job is launched
//!   --adaptive-config S  validate an adaptive-execution config: S is
//!                        `default` or comma-separated key=value overrides
//!                        (salt_factor=8, skew_threshold_milli=4000, ...);
//!                        nonsensical settings print MAT092 warnings
//!   -h, --help           print usage
//! ```
//!
//! Exit status: 0 if every program is clean (warnings allowed), 1 if any
//! program has an error-severity diagnostic or fails to parse, 2 on usage
//! or I/O errors.

use std::process::ExitCode;

use matryoshka::core::{AdaptiveConfig, PlanRewriteConfig};
use matryoshka::ir::analyze::codes;
use matryoshka::ir::analyze::plan::rewrite_plan;
use matryoshka::ir::pretty::{plan_tree, render_diagnostics};
use matryoshka::ir::{analyze, parse_program, parsing_phase, Diagnostic, Dialect};
use matryoshka::tasks::ir_programs;

const USAGE: &str = "usage: matryoshka-check [--builtin] [--sources a,b,c] \
[--dialect matryoshka|diql] [--explain] [--adaptive-config SPEC] [FILE...]";

struct Options {
    files: Vec<String>,
    builtin: bool,
    sources: Option<Vec<String>>,
    dialect: Dialect,
    explain: bool,
    adaptive: Option<AdaptiveConfig>,
}

/// Parse an `--adaptive-config` spec: `default` (the enabled defaults) or a
/// comma-separated list of `key[=value]` overrides applied on top of them.
/// A bare boolean key means `true`.
fn parse_adaptive_spec(spec: &str) -> Result<AdaptiveConfig, String> {
    let mut cfg = AdaptiveConfig::enabled();
    if spec.trim() == "default" {
        return Ok(cfg);
    }
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = match part.split_once('=') {
            Some((k, v)) => (k.trim(), Some(v.trim())),
            None => (part, None),
        };
        let bool_of = |v: Option<&str>| match v {
            None | Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(other) => Err(format!("{key}: expected true/false, got {other:?}")),
        };
        let int_of = |v: Option<&str>| {
            v.ok_or_else(|| format!("{key} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{key}: {e}"))
        };
        match key {
            "enabled" => cfg.enabled = bool_of(value)?,
            "coalesce" => cfg.coalesce = bool_of(value)?,
            "switch_joins" => cfg.switch_joins = bool_of(value)?,
            "salt_skew" => cfg.salt_skew = bool_of(value)?,
            "target_partition_bytes" => cfg.target_partition_bytes = int_of(value)?,
            "skew_threshold_milli" => cfg.skew_threshold_milli = int_of(value)?,
            "salt_factor" => cfg.salt_factor = int_of(value)? as u32,
            "min_partitions" => cfg.min_partitions = int_of(value)? as usize,
            other => return Err(format!("unknown adaptive-config key {other:?}")),
        }
    }
    Ok(cfg)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        builtin: false,
        sources: None,
        dialect: Dialect::Matryoshka,
        explain: false,
        adaptive: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--builtin" => opts.builtin = true,
            "--explain" => opts.explain = true,
            "--sources" => {
                let v = it.next().ok_or("--sources needs a comma-separated list")?;
                opts.sources = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--adaptive-config" => {
                let v = it.next().ok_or("--adaptive-config needs a spec (try `default`)")?;
                opts.adaptive = Some(parse_adaptive_spec(v)?);
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
    if opts.files.is_empty() && !opts.builtin && opts.adaptive.is_none() {
        return Err("no input files (pass FILEs, --builtin, and/or --adaptive-config)".into());
    }
    Ok(opts)
}

/// Validate an adaptive-execution config, rendering each complaint from
/// [`AdaptiveConfig::validate`] as a `MAT092` warning. Warnings do not fail
/// the run (exit status stays 0), matching the analyzer's warning semantics.
fn check_adaptive_config(cfg: &AdaptiveConfig) {
    let warnings = cfg.validate();
    for w in &warnings {
        eprintln!("{}", Diagnostic::warning(codes::ADAPTIVE_CONFIG, None, w.clone()));
    }
    if warnings.is_empty() {
        println!("ok: adaptive-config ({cfg:?})");
    } else {
        println!("ok: adaptive-config with {} warning(s)", warnings.len());
    }
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
    if let Some(cfg) = &opts.adaptive {
        check_adaptive_config(cfg);
    }
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
    if opts.builtin {
        for p in ir_programs::ALL {
            let sources: Vec<String> = p.inputs.iter().map(|s| s.to_string()).collect();
            all_ok &= check_program(p.name, p.source, &sources, opts.dialect, opts.explain);
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
