//! The `silofuse` command-line tool's input validation, driven through
//! the built binary.

use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("silofuse-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn synth_refuses_more_clients_than_columns() {
    let dir = scratch("clients");
    let input = dir.join("three_cols.csv");
    let rows: String =
        (0..40).map(|i| format!("{i},{}.5,{}\n", i % 3, ["a", "b"][i % 2])).collect();
    std::fs::write(&input, format!("id,x,kind\n{rows}")).expect("write csv");
    let out = dir.join("synth.csv");

    let run = Command::new(env!("CARGO_BIN_EXE_silofuse"))
        .args(["synth", "--quick", "--rows", "10", "--clients", "5", "--input"])
        .arg(&input)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run silofuse");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "5 silos over 3 columns must fail:\n{stderr}");
    assert!(stderr.contains("--clients 5"), "{stderr}");
    assert!(stderr.contains("cannot split 3 columns across 5 clients"), "{stderr}");
    assert!(!out.exists(), "nothing may be synthesized");
    let _ = std::fs::remove_dir_all(&dir);
}
