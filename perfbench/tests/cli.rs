//! The `bench` binary's command line: usage errors are exit code 2 with
//! a message, never a panic; `--check-repeat` judges two outputs.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("the bench binary runs")
}

#[test]
fn usage_errors_exit_2_with_a_message_and_no_result() {
    for bad in [
        &["--workload", "table1"][..],
        &["--workload", "nonsense", "--seed", "1"],
        &["--workload", "table1-50", "--seed", "forty-two"],
        &["--workload", "table1-50", "--seed", "-1"],
        &["--workload", "table1-50", "--seed"],
        &["--workload", "table1-50", "--trace", "yes"],
        &["--seed", "42"],
        &[],
    ] {
        let out = bench(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?} printed a result");
        let message = String::from_utf8_lossy(&out.stderr);
        assert!(message.contains("usage:"), "{bad:?}: {message}");
        assert!(!message.contains("panicked"), "{bad:?}: {message}");
    }
}

#[test]
fn check_repeat_exits_0_within_bounds_1_beyond_2_on_unreadable_input() {
    // Cargo's per-package scratch directory, inside the target directory.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("check-repeat");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let write = |name: &str, cpu: f64, traffic: f64| {
        let path = dir.join(name);
        let text = format!(
            "sim_fingerprint 00aa\n{{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{{\"cpu_s\":{{\"value\":{cpu},\"unit\":\"s\"}},\"sim_traffic_per_min\":{{\"value\":{traffic},\"unit\":\"tx/min\"}}}}}}\n"
        );
        std::fs::write(&path, text).expect("write the fixture");
        path.to_string_lossy().into_owned()
    };
    let base = write("a.out", 2.0, 3348.3);
    let near = write("b.out", 2.2, 3348.3);
    let slow = write("c.out", 3.0, 3348.3);
    let drift = write("d.out", 2.0, 3348.4);

    let same = bench(&["--check-repeat", &base, &near]);
    assert_eq!(
        same.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("REPEATS"));
    assert_eq!(
        bench(&["--check-repeat", &base, &slow]).status.code(),
        Some(1)
    );
    let drifted = bench(&["--check-repeat", &base, &drift]);
    assert_eq!(drifted.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&drifted.stdout).contains("must repeat exactly"));
    let missing = dir.join("missing.out").to_string_lossy().into_owned();
    assert_eq!(
        bench(&["--check-repeat", &base, &missing]).status.code(),
        Some(2)
    );
    std::fs::remove_dir_all(&dir).expect("clean up the scratch directory");
}
