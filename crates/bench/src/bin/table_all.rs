//! `tables all`: every reproduction table in one go (`--smoke` for CI size).
fn main() -> std::process::ExitCode {
    bench_tables::dispatch(["all".into()].into_iter().chain(std::env::args().skip(1)))
}
