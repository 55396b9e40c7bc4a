//! `cargo bench -p matryoshka-bench --bench figures` regenerates every
//! table/figure of the paper's evaluation section on the simulated cluster
//! and prints the series the paper plots. Scale with `MATRYOSHKA_SCALE=full`.

use matryoshka_bench::{figures, print_rows, Profile};

fn main() {
    // Under `cargo bench`, ignore libtest-style flags like `--bench`.
    let profile = Profile::from_env();
    let mut rows = Vec::new();
    let sections: Vec<(&str, fn(Profile) -> Vec<matryoshka_bench::Row>)> = vec![
        ("fig1", figures::fig1::run),
        ("fig3", figures::fig3::run),
        ("fig4", figures::fig4::run),
        ("fig5", figures::fig5::run),
        ("fig6", figures::fig6::run),
        ("fig7", figures::fig7::run),
        ("fig8", figures::fig8::run),
        ("fig9", figures::fig9::run),
        ("ablations", figures::ablations::run),
    ];
    for (name, run) in sections {
        eprintln!("[figures] running {name} ({profile:?}) ...");
        rows.extend(run(profile));
    }
    print_rows(&rows);
}
