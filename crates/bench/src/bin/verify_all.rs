//! `tables verify`: the static verification sweep (`--smoke` for the
//! reduced matrix CI uses).  Exits nonzero on any violation.
fn main() -> std::process::ExitCode {
    bench_tables::dispatch(
        ["verify".into()]
            .into_iter()
            .chain(std::env::args().skip(1)),
    )
}
