//! `gmp-predict` end to end: a test file wider than the model is refused
//! with exit code 1 and a message naming both widths.

use std::process::Command;

#[test]
fn too_wide_test_file_exits_1_naming_both_widths() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("predict_cli_too_wide");
    std::fs::create_dir_all(&dir).unwrap();
    let (train, model, test) = (
        dir.join("train.txt"),
        dir.join("model.txt"),
        dir.join("test.txt"),
    );
    std::fs::write(
        &train,
        "0 1:0.1 2:0.2\n0 1:0.2 2:0.1\n0 1:0.15 2:0.15\n\
         1 1:0.9 2:0.8\n1 1:0.8 2:0.9\n1 1:0.85 2:0.85\n",
    )
    .unwrap();
    let trained = Command::new(env!("CARGO_BIN_EXE_gmp-train"))
        .args(["-c", "4", "-g", "0.5"])
        .arg(&train)
        .arg(&model)
        .output()
        .unwrap();
    assert!(trained.status.success(), "{trained:?}");

    std::fs::write(&test, "1 1:0.1 2:0.5 5:1.0\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_gmp-predict"))
        .arg(&test)
        .arg(&model)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("test data has 5 features but the model has 2"),
        "{stderr}"
    );
}
