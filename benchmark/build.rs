//! Bakes the compiler version and the repository commit into the
//! binary, so every result file can say what produced it without the
//! benchmark starting a second process at run time.

use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = first_line(Command::new(rustc).arg("-V"));
    // A checkout that is not a git repository (the benchmark driver's)
    // has no commit to record.
    let commit = first_line(Command::new("git").args(["rev-parse", "HEAD"]));
    let unknown = || "unknown".to_string();
    println!(
        "cargo:rustc-env=BENCH_RUSTC_VERSION={}",
        version.unwrap_or_else(unknown)
    );
    println!(
        "cargo:rustc-env=BENCH_GIT_COMMIT={}",
        commit.unwrap_or_else(unknown)
    );
    println!("cargo:rerun-if-changed=build.rs");
    // Naming a path that does not exist would rerun this script, and
    // rebuild the package, on every `cargo run`.
    for path in ["../.git/HEAD", "../.git/refs"] {
        if std::path::Path::new(path).exists() {
            println!("cargo:rerun-if-changed={path}");
        }
    }
}
