//! The figure, table, ablation and fleet binaries read their flags
//! through `tscache_bench::Args`: a value that does not parse, or an
//! integer that does not fit its flag's type, ends the run with
//! status 1 and a message naming the flag, before any simulation
//! starts.

use std::process::Command;

#[test]
fn malformed_flags_exit_1_and_name_the_flag() {
    let cases = [
        (env!("CARGO_BIN_EXE_fig5_bernstein"), ["--samples", "1e6"]),
        (env!("CARGO_BIN_EXE_fig5_bernstein"), ["--samples", "4294967296"]),
        (env!("CARGO_BIN_EXE_tab_mbpta_compliance"), ["--alpha", "5%"]),
        (env!("CARGO_BIN_EXE_fleet_campaign"), ["--retries", "-1"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let label = format!("{bin} {}", args.join(" "));
        assert_eq!(out.status.code(), Some(1), "{label}: {stderr}");
        assert!(stderr.contains(&format!("{}:", args.join(" "))), "{label}: {stderr}");
    }
}
