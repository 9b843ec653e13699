//! Runs the benchmark's self-test (every workload at tiny size, both
//! modes). Use `cargo test --release --manifest-path perfbench/Cargo.toml`.

#[test]
fn benchmark_self_test_passes() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bootleg-perfbench"))
        .arg("--self-test")
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "self-test failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
