//! The machine and code a result was measured on.

use std::path::Path;

/// Recorded with every result: wall times mean little without the core
/// count and the resolved engine width.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    /// Worker threads of the in-process engines (`GCNRL_THREADS` or nproc).
    pub engine_threads: usize,
    /// Worker threads of the loopback server's engines (the default config).
    pub server_engine_threads: usize,
    /// A digest of the sources built.
    pub commit: String,
    pub seed: u64,
}

impl Machine {
    pub fn detect(seed: u64) -> Self {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            engine_threads: gcnrl_exec::EngineConfig::from_env().threads,
            server_engine_threads: gcnrl_exec::EngineConfig::default().threads,
            commit: source_digest(),
            seed,
        }
    }

    pub fn json(&self) -> String {
        format!(
            r#"{{"nproc":{},"engine_threads":{},"server_engine_threads":{},"commit":"{}","seed":{}}}"#,
            self.nproc, self.engine_threads, self.server_engine_threads, self.commit, self.seed
        )
    }
}

/// FNV-1a digest of every source file the ledger builds from (the
/// workspace crates, the lock file and the ledger itself), relative to the
/// checkout root. Checkouts need not be git repositories, so this stands in
/// for the commit id.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in [
        "crates",
        "ledger/src",
        "Cargo.toml",
        "Cargo.lock",
        "ledger/Cargo.toml",
    ] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        eat(file.to_string_lossy().as_bytes());
        eat(&std::fs::read(file).unwrap_or_default());
    }
    format!("src-{hash:016x}")
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        let keep = path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock");
        if keep {
            out.push(path.to_path_buf());
        }
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect(&entry.path(), out);
        }
    }
}
