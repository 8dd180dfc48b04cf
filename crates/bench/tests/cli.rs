//! `trace-dump`, `critpath` and `chaos-sweep` answer a bad command line the
//! same way: one `error: …` line on stderr and exit code 1, never a panic —
//! whichever of the three is asked, and whether the argument is malformed,
//! missing or unknown. And they take the same runs: any kernel of the
//! problem table at any thread count of at least 1.

use std::process::Command;

const BINS: [&str; 3] = [
    env!("CARGO_BIN_EXE_trace-dump"),
    env!("CARGO_BIN_EXE_critpath"),
    env!("CARGO_BIN_EXE_chaos-sweep"),
];

/// Usage errors, in every tool.
const BAD: [&[&str]; 9] = [
    &["--threads", "0"],
    &["--kernel", "micro", "--threads", "0"],
    &["--kernel", "md", "--threads", "0"],
    &["--threads"],
    &["--kernel"],
    &["--out"],
    &["--threads", "eight"],
    &["--kernel", "bogus", "--threads", "4"],
    &["--bogus"],
];

/// Accepted, in every tool. The first three were usage errors while the
/// trace tools ran fixed problems (126 jacobi rows, 256 particles) and
/// `trace-dump` knew no `md`; 65 threads is one more than the default
/// arena provisioning. (jacobi at 1024 threads is accepted the same way —
/// `cli::threads_arg`'s unit test — and run by hand, not here: too slow
/// for a debug build.)
const ACCEPTED: [&[&str]; 4] = [
    &["--kernel", "jacobi", "--threads", "127"],
    &["--kernel", "md", "--threads", "257"],
    &["--kernel", "md", "--threads", "2"],
    &["--kernel", "micro", "--threads", "65"],
];

#[test]
fn bad_argument_vectors_are_usage_errors_in_every_tool() {
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
fn every_kernel_runs_at_any_thread_count_in_every_tool() {
    let dir = std::env::temp_dir().join(format!("samhita-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for bin in BINS {
        for argv in ACCEPTED {
            let mut cmd = Command::new(bin);
            cmd.args(argv).arg("--out").arg(dir.join("out.json"));
            if bin.ends_with("chaos-sweep") {
                cmd.args(["--max-points", "1"]);
            }
            let out = cmd.output().expect("run the tool");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{bin} {argv:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// `bench-diff` takes exactly two paths and no flag (`--tolerance` went
/// with the tolerance gate): anything else is `error: …` and the usage on
/// stderr, exit code 1, and nothing compared.
#[test]
fn bench_diff_takes_two_paths_and_no_flag() {
    let bad: [&[&str]; 5] = [
        &[],
        &["results/baselines"],
        &["a", "b", "c"],
        &["a", "b", "--tolerance", "0.05"],
        &["--bogus"],
    ];
    for argv in bad {
        let out = Command::new(env!("CARGO_BIN_EXE_bench-diff")).args(argv).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert!(
            matches!(lines[..], [e, "usage: bench-diff <baseline> <fresh>"] if e.starts_with("error: ")),
            "{argv:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{argv:?} compared something");
    }
}
