//! `tables mc`: the trace-level model-checking sweep (`--smoke` for the
//! reduced matrix CI uses).  Exits nonzero on any violation or divergence.
fn main() -> std::process::ExitCode {
    bench_tables::dispatch(["mc".into()].into_iter().chain(std::env::args().skip(1)))
}
