//! Reproduces Fig. 7 (data skew: Zipf-distributed group sizes).

fn main() {
    let rows = matryoshka_bench::figures::fig7::run(matryoshka_bench::Profile::from_env());
    matryoshka_bench::print_rows(&rows);
}
