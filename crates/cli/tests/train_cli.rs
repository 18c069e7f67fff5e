//! `gmp-train` end to end: a hyper-parameter outside LibSVM's rules is
//! refused with exit code 1 and a message naming it, and no model is
//! written.

use std::process::Command;

#[test]
fn bad_hyper_parameters_exit_1_naming_the_parameter() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("train_cli_bad_params");
    std::fs::create_dir_all(&dir).unwrap();
    let (train, model) = (dir.join("train.txt"), dir.join("model.txt"));
    std::fs::write(
        &train,
        "0 1:0.1 2:0.2\n0 1:0.2 2:0.1\n0 1:0.15 2:0.15\n\
         1 1:0.9 2:0.8\n1 1:0.8 2:0.9\n1 1:0.85 2:0.85\n",
    )
    .unwrap();
    for (args, message) in [
        (&["-c", "0"][..], "C must be finite and > 0, got 0"),
        (&["-c", "nan"], "C must be finite and > 0, got NaN"),
        (&["-e", "nan"], "eps must be finite and > 0, got NaN"),
        (&["-g", "nan"], "gamma must be finite and >= 0, got NaN"),
        (
            &["--weight", "1", "nan"],
            "weight for class 1 must be finite and positive",
        ),
    ] {
        let _ = std::fs::remove_file(&model);
        let out = Command::new(env!("CARGO_BIN_EXE_gmp-train"))
            .args(args)
            .arg(&train)
            .arg(&model)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!model.exists(), "{args:?} wrote a model");
    }
}
