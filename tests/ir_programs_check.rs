//! Every shipped IR program, the `examples/programs/` corpus, must pass
//! the static analyzer with no error-severity diagnostics. This is the
//! test-suite twin of the `scripts/ci.sh` analyzer step
//! (`matryoshka-check`). The parsing phase's output must pass it again
//! unchanged: that is the gate every `Lowering` run starts with.

use matryoshka::ir::{analyze, parse_program, parsing_phase, Dialect};

#[test]
fn example_program_corpus_passes_check() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "mat") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let ast = parse_program(&src).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let sources = analyze::source_names(&ast);
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let parsed = parsing_phase(&ast, &refs, Dialect::Matryoshka)
            .unwrap_or_else(|e| panic!("{path:?} rejected by the analyzer: {e}"));
        let gated = parsing_phase(&parsed, &refs, Dialect::Matryoshka)
            .unwrap_or_else(|e| panic!("{path:?} rejected after the parsing phase: {e}"));
        assert_eq!(gated, parsed, "{path:?}: the gate rewrote parsing-phase output");
        checked += 1;
    }
    assert!(checked >= 5, "expected a real corpus under {dir:?}, found {checked} programs");
}
