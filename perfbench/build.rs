//! Stamps the benchmark binary with the compiler version and the commit it
//! was built from, so every result line records what produced it.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = run(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let repo = Path::new(&manifest).join("..");
    let commit = run(Command::new("git")
        .arg("-C")
        .arg(&repo)
        .args(["rev-parse", "HEAD"]))
    .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    for watched in [".git/HEAD", ".git/refs/heads"] {
        let path = repo.join(watched);
        // Watching a path that does not exist would rebuild on every run.
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
    println!("cargo:rerun-if-changed=build.rs");
}

fn run(command: &mut Command) -> Option<String> {
    let output = command.output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}
