//! The machine fingerprint stamped on every result. Two results are
//! comparable only when every field except `code` agrees: the same CPU,
//! core count, compiled target features and compiler. `code` names the
//! program under test, which is what a comparison is expected to vary.

/// Target features this build was compiled with, from a fixed list.
fn target_features() -> String {
    let features: &[(&str, bool)] = &[
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let on: Vec<&str> = features.iter().filter(|f| f.1).map(|f| f.0).collect();
    if on.is_empty() {
        "none".into()
    } else {
        on.join("+")
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The fingerprint as one JSON object.
pub fn json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"cpu_model\": {}, \"nproc\": {}, \"target\": {}, \"target_features\": {}, \"rustc\": {}, \"code\": {}}}",
        json_str(&cpu_model()),
        nproc,
        json_str(&format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS)),
        json_str(&target_features()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_CODE")),
    )
}
