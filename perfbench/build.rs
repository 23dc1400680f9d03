//! Records what the fingerprint needs from build time: the compiler
//! version, and the code under test as a git commit when the checkout is
//! a git repository, plus a content digest of its sources either way.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Every file under `dir`, in a stable order.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            files(&p, out);
        } else {
            out.push(p);
        }
    }
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !s.is_empty()).then_some(s)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version =
        command_line(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    let sources = ["crates", "vendor", "Cargo.toml", "Cargo.lock"];
    let mut paths = Vec::new();
    for s in sources {
        let p = root.join(s);
        if p.is_dir() {
            files(&p, &mut paths);
        } else if p.is_file() {
            paths.push(p.clone());
        }
        if p.exists() {
            println!("cargo:rerun-if-changed={}", p.display());
        }
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for p in &paths {
        fnv(
            &mut hash,
            p.strip_prefix(&root)
                .unwrap_or(p)
                .to_string_lossy()
                .as_bytes(),
        );
        fnv(&mut hash, &std::fs::read(p).unwrap_or_default());
    }
    let git = root.join(".git");
    let commit = if git.exists() {
        println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
        println!("cargo:rerun-if-changed={}", git.join("refs").display());
        command_line(
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        None
    };
    let code = match commit {
        Some(c) => format!("git:{c} src:{hash:016x}"),
        None => format!("src:{hash:016x}"),
    };
    println!("cargo:rustc-env=PERFBENCH_CODE={code}");
    println!("cargo:rerun-if-changed=build.rs");
}
