//! Regenerate the paper's evaluation: `tables [--smoke] <name>… | all` runs
//! the named entries of `bench_tables::TABLES` (the crate doc lists them).
fn main() -> std::process::ExitCode {
    bench_tables::dispatch(std::env::args().skip(1))
}
