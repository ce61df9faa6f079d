//! Bakes the facts every result is recorded with into the binary: the
//! compiler version, the build profile and the commit of the source tree.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    let opt = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "?".into());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile} (opt-level {opt})");
    // Read the commit straight from `.git` so the build never looks outside
    // the source tree; an exported tree without `.git` reports "unknown".
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", commit(&git));
    // A missing file would rerun this script, and rebuild the binary, on
    // every build; watch only what exists.
    println!("cargo:rerun-if-changed=build.rs");
    for watched in ["HEAD", "refs/heads", "packed-refs"] {
        if git.join(watched).exists() {
            println!("cargo:rerun-if-changed=../.git/{watched}");
        }
    }
}

fn commit(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
