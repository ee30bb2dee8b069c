//! End-to-end tests of the `blu` binary: each subcommand driven via
//! the compiled executable, chained through a real trace file.

use std::path::PathBuf;
use std::process::Command;

fn blu() -> Command {
    Command::new(env!("CARGO_BIN_EXE_blu"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("blu-cli-test-{}-{name}", std::process::id()))
}

#[test]
fn generate_inspect_infer_eval_pipeline() {
    let trace = temp("pipeline.json");
    // generate
    let out = blu()
        .args([
            "generate",
            "--ues",
            "4",
            "--wifi",
            "6",
            "--seconds",
            "10",
            "--seed",
            "5",
            "--out",
        ])
        .arg(&trace)
        .output()
        .expect("run blu generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    // inspect
    let out = blu().arg("inspect").arg(&trace).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hidden terminals"), "{text}");
    assert!(text.contains("UE 0"), "{text}");

    // infer
    let out = blu().arg("infer").arg(&trace).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("inferred blue-print"), "{text}");
    assert!(text.contains("vs ground truth"), "{text}");

    // eval (small, fast configuration)
    let out = blu()
        .arg("eval")
        .arg(&trace)
        .args(["--rbs", "6", "--txops", "50", "--scheduler", "pf"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PF:"), "{text}");
    assert!(text.contains("Mbps"), "{text}");

    std::fs::remove_file(&trace).ok();
}

#[test]
fn plan_prints_schedule() {
    let out = blu()
        .args([
            "plan",
            "--clients",
            "8",
            "--k",
            "4",
            "--t",
            "3",
            "--show",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("measurement sub-frames"), "{text}");
    assert!(text.contains("SF    0"), "{text}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = blu().arg("bogus").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn missing_file_reports_error() {
    let out = blu()
        .args(["inspect", "/nonexistent/t.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn help_flags_work() {
    for cmd in ["generate", "inspect", "infer", "eval", "plan"] {
        let out = blu().args([cmd, "--help"]).output().unwrap();
        assert!(out.status.success(), "{cmd} --help failed");
        assert!(!out.stdout.is_empty());
    }
    let out = blu().arg("help").output().unwrap();
    assert!(out.status.success());
}

#[test]
fn misspelled_flag_fails_naming_it() {
    // `ctl add` spells these `--window` and `--churn-rate`: the
    // misspelled command must fail before any connection is made,
    // not admit a phased, churn-free cell.
    let out = blu()
        .args(["ctl", "--addr", "127.0.0.1:1", "add", "--seed", "1"])
        .args(["--seconds", "120", "--stream-window", "2000"])
        .args(["--churn-millihz", "500"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --stream-window"), "{err}");
    assert!(out.stdout.is_empty(), "nothing may be sent or printed");
}

#[test]
fn removed_stall_threshold_flag_is_rejected() {
    // The silent-step watchdog it tuned is gone; the flag must fail
    // before any run starts, not be ignored.
    let out = blu()
        .args(["robust", "--supervise", "--stall-threshold", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --stall-threshold"), "{err}");
    assert!(out.stdout.is_empty(), "nothing may run or print");
}
