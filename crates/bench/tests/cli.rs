//! `trace-dump` and `critpath` answer a bad command line the same way: one
//! `error: …` line on stderr and exit code 1, never a panic — whichever of
//! the two is asked, and whether the argument is malformed, missing, or a
//! thread count the kernel's fixed problem cannot be split into.

use std::process::Command;

const BINS: [&str; 2] = [env!("CARGO_BIN_EXE_trace-dump"), env!("CARGO_BIN_EXE_critpath")];

/// Every one of these used to panic in at least one of the two tools
/// (`trace-dump` knows no `md`: there the md rows are unknown kernels).
const BAD: [&[&str]; 11] = [
    &["--threads", "0"],
    &["--kernel", "micro", "--threads", "0"],
    &["--kernel", "jacobi", "--threads", "127"],
    &["--threads", "1024", "--kernel", "jacobi"],
    &["--kernel", "md", "--threads", "257"],
    &["--kernel", "md", "--threads", "0"],
    &["--threads"],
    &["--kernel"],
    &["--out"],
    &["--threads", "eight"],
    &["--kernel", "bogus", "--threads", "4"],
];

#[test]
fn bad_argument_vectors_are_usage_errors_in_both_tools() {
    for bin in BINS {
        for argv in BAD {
            let out = Command::new(bin).args(argv).output().expect("run the tool");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{bin} {argv:?}: {stderr}");
            assert!(stderr.starts_with("error: "), "{bin} {argv:?}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{bin} {argv:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin} {argv:?} started a run");
        }
    }
}

#[test]
fn thread_counts_past_the_default_provisioning_get_their_arenas() {
    // 65 threads is one more than `SamhitaConfig::default().max_threads`:
    // `critpath` has run this since it took `report_config`, `trace-dump`
    // panicked in bring-up.
    let dir = std::env::temp_dir().join(format!("samhita-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for bin in BINS {
        let out = Command::new(bin)
            .args(["--kernel", "micro", "--threads", "65", "--out"])
            .arg(dir.join("out.json"))
            .output()
            .expect("run the tool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{bin}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
