//! Docs that can't rot. Three gates over the repository's Markdown
//! (`*.md` at the root plus `docs/*.md`), run as part of the normal test
//! suite and of `scripts/ci.sh`:
//!
//! 1. **Link checking**: every relative `[text](target)` link must point at
//!    a file that exists, and every `#fragment` (same-file or cross-file)
//!    must match a real heading under GitHub's anchor-slug rules.
//! 2. **Example checking**: every fenced ```mat code block is parsed and
//!    run through the static analyzer (`docs/ANALYSIS.md`), exactly like
//!    the `examples/programs/` corpus — documentation snippets are programs
//!    and must keep passing `matryoshka-check`.
//!
//! 3. **Schema checking**: the "Event schema" table of
//!    `docs/OBSERVABILITY.md` must list exactly the variants, JSON types and
//!    field names of `EngineEvent::SCHEMA`, and its "Counters" table exactly
//!    the names and folds of `StatsSnapshot::FIELDS`. Its decision-site
//!    tables must list exactly the sites of `Rule::SITES`, which are the
//!    `Decision::site`s the `tests/workloads` plans emit, and its "Decision
//!    rules" table one row per rule, in table order. The configuration
//!    table of `docs/FAULTS.md` must list exactly the fields of
//!    `FaultConfig`, in order, with their defaults; its "Observability
//!    surface" tables, `EngineEvent::SCHEMA` variants with exactly their
//!    fields and the counters those events move.
//!
//! All are std-only, like everything else in the workspace.

mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use matryoshka::engine::{
    ClusterConfig, Engine, EngineEvent, FaultConfig, Rule, SimTime, StatsSnapshot,
};
use matryoshka::ir::{analyze, check, parse_program, Dialect};

/// The documentation surface under test: root Markdown + `docs/`.
fn markdown_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in [root.to_path_buf(), root.join("docs")] {
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|x| x == "md") {
                out.push(path);
            }
        }
    }
    out.sort();
    assert!(out.len() >= 8, "expected the repo's documentation set, found {out:?}");
    out
}

/// Lines of `src` with fenced code blocks blanked out (fences toggle on
/// lines whose trimmed form starts with ```), so link and heading scanning
/// never fires inside examples.
fn prose_lines(src: &str) -> Vec<&str> {
    let mut in_fence = false;
    src.lines()
        .map(|line| {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                ""
            } else if in_fence {
                ""
            } else {
                line
            }
        })
        .collect()
}

/// GitHub's heading-anchor slug: lowercase; keep letters, digits, `_` and
/// `-`; spaces become `-`; everything else is dropped.
fn github_slug(heading: &str) -> String {
    let mut slug = String::new();
    for ch in heading.trim().chars() {
        if ch.is_alphanumeric() || ch == '_' || ch == '-' {
            slug.extend(ch.to_lowercase());
        } else if ch == ' ' {
            slug.push('-');
        }
    }
    slug
}

/// The anchor set of one Markdown file: every ATX heading's slug, with
/// GitHub's `-1`, `-2`, ... suffixes for duplicates.
fn anchors_of(src: &str) -> Vec<String> {
    let mut seen: BTreeMap<String, u32> = BTreeMap::new();
    let mut out = Vec::new();
    for line in prose_lines(src) {
        let trimmed = line.trim_start();
        let hashes = trimmed.bytes().take_while(|&b| b == b'#').count();
        if !(1..=6).contains(&hashes) || !trimmed[hashes..].starts_with(' ') {
            continue;
        }
        // Strip inline-code backticks so `engine.trace_json()` slugs the
        // way GitHub renders it (formatting marks carry no slug weight).
        let text: String = trimmed[hashes..].replace('`', "");
        let slug = github_slug(&text);
        let n = seen.entry(slug.clone()).or_insert(0);
        out.push(if *n == 0 { slug } else { format!("{slug}-{n}") });
        *n += 1;
    }
    out
}

/// Every inline `[text](target)` link in `src`, in order. Images
/// (`![alt](target)`) count too — their targets must exist just the same.
fn links_of(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in prose_lines(src) {
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'[' {
                // Find the matching `](` then the closing `)`.
                if let Some(close) = line[i..].find("](") {
                    let start = i + close + 2;
                    if let Some(end) = line[start..].find(')') {
                        out.push(line[start..start + end].to_string());
                        i = start + end + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
    out
}

#[test]
fn markdown_links_and_anchors_resolve() {
    let mut checked = 0;
    let mut failures = Vec::new();
    for file in markdown_files() {
        let src = std::fs::read_to_string(&file).unwrap();
        let dir = file.parent().unwrap();
        for link in links_of(&src) {
            if link.starts_with("http://")
                || link.starts_with("https://")
                || link.starts_with("mailto:")
            {
                continue; // external; not this checker's job
            }
            checked += 1;
            let (path_part, anchor) = match link.split_once('#') {
                Some((p, a)) => (p, Some(a)),
                None => (link.as_str(), None),
            };
            let (target_src, target_name) = if path_part.is_empty() {
                (src.clone(), file.clone())
            } else {
                let target = dir.join(path_part);
                if !target.exists() {
                    failures.push(format!("{}: broken link `{link}`", file.display()));
                    continue;
                }
                if anchor.is_none() {
                    continue;
                }
                (std::fs::read_to_string(&target).unwrap(), target)
            };
            if let Some(anchor) = anchor {
                if !anchors_of(&target_src).iter().any(|a| a == anchor) {
                    failures.push(format!(
                        "{}: link `{link}`: no heading in {} slugs to `#{anchor}`",
                        file.display(),
                        target_name.display()
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(checked >= 10, "expected a linked documentation set, checked only {checked} links");
}

/// Every fenced ```mat block in `src`, in order.
fn mat_blocks(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    for line in src.lines() {
        let trimmed = line.trim_start();
        match current.as_mut() {
            None if trimmed == "```mat" => current = Some(String::new()),
            None => {}
            Some(block) => {
                if trimmed.starts_with("```") {
                    out.push(current.take().unwrap());
                } else {
                    block.push_str(line);
                    block.push('\n');
                }
            }
        }
    }
    out
}

#[test]
fn documented_mat_examples_pass_the_analyzer() {
    let mut total = 0;
    for file in markdown_files() {
        let src = std::fs::read_to_string(&file).unwrap();
        for (i, block) in mat_blocks(&src).iter().enumerate() {
            total += 1;
            let ast = parse_program(block)
                .unwrap_or_else(|e| panic!("{}: mat block #{i}: {e}", file.display()));
            let sources = analyze::source_names(&ast);
            let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
            check(&ast, &refs, Dialect::Matryoshka).unwrap_or_else(|e| {
                panic!("{}: mat block #{i} rejected by the analyzer: {e}", file.display())
            });
        }
    }
    assert!(
        total >= 2,
        "expected documented mat examples (docs/FAULTS.md has them), found {total}"
    );
}

/// The backticked names of one table cell (`` `a`, `b` `` -> `["a", "b"]`).
fn cell_names(cell: &str) -> Vec<&str> {
    cell.split(',').map(|name| name.trim().trim_matches('`')).collect()
}

/// The body rows (those starting with a backticked cell) of the table under
/// `heading` in the Markdown file `doc`.
fn doc_table(doc: &str, heading: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
    let src = std::fs::read_to_string(&path).unwrap();
    src.lines()
        .skip_while(|line| line.trim() != heading)
        .skip(1)
        .take_while(|line| !line.starts_with("## "))
        .filter(|line| line.starts_with("| `"))
        .map(str::to_string)
        .collect()
}

#[test]
fn event_schema_table_matches_the_engine_descriptor() {
    let rows = doc_table("docs/OBSERVABILITY.md", "## Event schema");
    assert_eq!(rows.len(), EngineEvent::SCHEMA.len(), "one table row per EngineEvent variant");
    for (row, schema) in rows.iter().zip(EngineEvent::SCHEMA) {
        // `| Event | JSON type | Fields | Emitted when |`; only the last
        // column may contain (escaped) pipes.
        let cells: Vec<&str> = row.splitn(5, '|').collect();
        assert_eq!(cell_names(cells[1]), [schema.variant], "row order follows the enum");
        assert_eq!(cell_names(cells[2]), [schema.kind], "{}: JSON type", schema.variant);
        let documented = cell_names(cells[3]);
        let described: Vec<&str> = schema.fields.iter().chain(schema.when).copied().collect();
        assert_eq!(documented, described, "{}: fields", schema.variant);
    }
}

#[test]
fn counters_table_matches_the_generated_fields() {
    let rows = doc_table("docs/OBSERVABILITY.md", "## Counters");
    assert_eq!(rows.len(), StatsSnapshot::FIELDS.len(), "one table row per counter");
    for (row, (name, fold)) in rows.iter().zip(StatsSnapshot::FIELDS) {
        // `| Counter | Fold | Fed by |`
        let cells: Vec<&str> = row.splitn(4, '|').collect();
        assert_eq!(cell_names(cells[1]), [*name], "row order follows the table in stats.rs");
        assert_eq!(cell_names(cells[2]), [format!("{fold:?}")], "{name}: fold");
    }
}

#[test]
fn fault_config_table_matches_the_struct() {
    // `FaultConfig { seed: 0, machine_loss_rate: 0.0, .. }`: every field, in
    // declaration order, with its default.
    let debug = format!("{:?}", FaultConfig::default());
    let inner = debug.strip_prefix("FaultConfig { ").and_then(|s| s.strip_suffix(" }")).unwrap();
    let fields: Vec<(&str, &str)> =
        inner.split(", ").map(|field| field.split_once(": ").unwrap()).collect();
    let rows = doc_table("docs/FAULTS.md", "## Configuration");
    let documented: Vec<(&str, &str)> = rows
        .iter()
        .map(|row| {
            // `| Field of FaultConfig | Default | Meaning |`
            let cells: Vec<&str> = row.splitn(4, '|').collect();
            (cell_names(cells[1])[0], cell_names(cells[2])[0])
        })
        .collect();
    assert_eq!(documented, fields, "docs/FAULTS.md (left) vs FaultConfig::default() (right)");
}

/// One sample of the recovery event `variant`, every field non-zero.
fn recovery_event(variant: &str) -> EngineEvent {
    let (start, end) = (SimTime::from_nanos(1), SimTime::from_nanos(2));
    match variant {
        "MachineLost" => {
            EngineEvent::MachineLost { machine: 1, stage: 1, partitions_lost: 1, at: start }
        }
        "PartitionRecomputed" => {
            EngineEvent::PartitionRecomputed { machine: 1, stage: 1, partitions: 1, start, end }
        }
        "Checkpoint" => EngineEvent::Checkpoint { operator: "checkpoint", bytes: 1, start, end },
        other => panic!("docs/FAULTS.md lists `{other}`, which is no recovery event"),
    }
}

#[test]
fn fault_observability_tables_match_the_events_and_their_counters() {
    // `| Event | Fields | Emitted when |`, then `| Counter of StatsSnapshot | Meaning |`.
    let rows = doc_table("docs/FAULTS.md", "## Observability surface");
    let (mut events, mut counters) = (Vec::new(), Vec::new());
    for row in &rows {
        match row.split('|').collect::<Vec<_>>()[..] {
            [_, event, fields, _, _] => {
                let [variant] = cell_names(event)[..] else { panic!("{row}: one event") };
                let schema = EngineEvent::SCHEMA.iter().find(|s| s.variant == variant);
                let schema = schema.unwrap_or_else(|| panic!("{variant} is no EngineEvent"));
                let described: Vec<&str> =
                    schema.fields.iter().chain(schema.when).copied().collect();
                assert_eq!(cell_names(fields), described, "{variant}: fields");
                events.push(recovery_event(variant));
            }
            [_, counter, _, _] => counters.extend(cell_names(counter)),
            _ => panic!("{row}: neither an event row nor a counter row"),
        }
    }
    let folded = StatsSnapshot::from_events(&events).fields();
    let moved: Vec<&str> = folded.iter().filter(|(_, v)| *v > 0).map(|(name, _)| *name).collect();
    assert_eq!(counters, moved, "docs/FAULTS.md (left) vs counters its events move (right)");
}

/// The sites the two decision-site tables list (`| site | choice values | ... |`).
fn documented_decision_sites() -> BTreeSet<String> {
    let rows = doc_table("docs/OBSERVABILITY.md", "## The lowering-decision log");
    rows.iter().map(|row| cell_names(row.split('|').nth(1).unwrap())[0].to_string()).collect()
}

#[test]
fn decision_site_tables_match_the_rule_table() {
    let declared: BTreeSet<String> = Rule::SITES.iter().map(|site| site.to_string()).collect();
    let documented = documented_decision_sites();
    assert_eq!(declared, documented, "Rule::SITES (left) vs documented sites (right)");
}

#[test]
fn decision_rules_table_follows_the_rule_table() {
    // `| Rule | Site | choice | cardinality, bytes | detail template |`
    let rows = doc_table("docs/OBSERVABILITY.md", "## Decision rules");
    let sites: Vec<&str> =
        rows.iter().map(|row| cell_names(row.split('|').nth(2).unwrap())[0]).collect();
    assert_eq!(sites, Rule::SITES, "one row per rule, in table order, with its site");
}

#[test]
fn decision_site_tables_match_the_sites_the_workloads_emit() {
    let documented = documented_decision_sites();
    let mut emitted = BTreeSet::new();
    let plans = workloads::lowering_configs()
        .into_iter()
        .flat_map(|(_, config)| workloads::paper_workloads(&config))
        .map(|(_, plan)| plan)
        .chain(workloads::shipped_programs().into_iter().map(|(_, plan)| plan));
    for plan in plans {
        let engine = Engine::new(ClusterConfig::local_test());
        plan(&engine);
        emitted.extend(engine.decisions().iter().map(|d| d.site.to_string()));
    }
    assert_eq!(emitted, documented, "emitted sites (left) vs documented sites (right)");
}
