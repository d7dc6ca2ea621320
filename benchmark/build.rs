//! Records the compiler and the flags this binary is built with, so every
//! result file can say so (`target-cpu=native` arrives through the
//! repository's `.cargo/config.toml` and changes kernel speed).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // Cargo joins the effective flags with 0x1f.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=BENCH_RUSTC={version}");
    println!("cargo:rustc-env=BENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-changed=build.rs");
}
