//! `tables all --smoke` against its checked-in output.
//!
//! Every modeled clock is a function of the program and the cost model
//! alone, and everything that depends on the host (native scaling's wall
//! clock and speed-up, the host's thread count) goes to stderr.  So the
//! stdout of the smoke-size run — the reproduction of Figures 7–10, the
//! paper's claims and every extension table — is a fixed text, kept in
//! `tests/golden/tables_smoke.txt` at the repository root.  A change that
//! moves a modeled number changes that file in the same diff and says why.
//! The full-size output (`tests/golden/tables_full.txt`) is compared in CI.

use std::process::Command;

#[test]
fn every_table_at_smoke_size_matches_the_golden_file() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/tables_smoke.txt"
    );
    let golden = std::fs::read_to_string(golden_path).expect("the golden file is checked in");
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["all", "--smoke"])
        .output()
        .expect("the tables binary runs");
    assert!(
        out.status.success(),
        "tables all --smoke exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("tables prints UTF-8");
    if got == golden {
        return;
    }
    let (mut got_lines, mut want_lines) = (got.lines(), golden.lines());
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (Some(g), Some(w)) if g == w => continue,
            (g, w) => panic!(
                "tables all --smoke differs from {golden_path} at line {line}:\n  \
                 golden: {}\n     got: {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of output>")
            ),
        }
    }
}
