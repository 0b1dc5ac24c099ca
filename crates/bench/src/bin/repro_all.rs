//! Runs every `repro_*` binary in sequence (they must live in the same
//! target directory, i.e. run `cargo run --release -p ongoing-bench --bin
//! repro_all` after `cargo build --release -p ongoing-bench`).

use std::process::Command;

/// One binary per experiment of the paper's evaluation, in paper order.
const BINS: &[&str] = &[
    "repro_table1",
    "repro_table2",
    "repro_table3",
    "repro_table4",
    "repro_fig7",
    "repro_forever",
    "repro_fig8",
    "repro_fig9",
    "repro_fig10",
    "repro_fig11",
    "repro_fig12",
    "repro_fig13",
    "repro_table5",
];

/// The last line of a run in which every binary succeeded.
fn summary() -> String {
    format!("all {} experiments reproduced.", BINS.len())
}

fn main() {
    let me = std::env::current_exe().expect("current exe");
    let dir = me.parent().expect("target dir");
    let mut failed = Vec::new();
    for bin in BINS {
        println!("\n================= {bin} =================\n");
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            failed.push(*bin);
        }
    }
    if failed.is_empty() {
        println!("\n{}", summary());
    } else {
        eprintln!("\nFAILED: {failed:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A binary added to or removed from the package (its `[[bin]]`
    /// section or its source file) without updating [`BINS`] fails here.
    #[test]
    fn bins_are_every_other_binary_of_the_package() {
        let mut listed: Vec<String> = BINS.iter().map(|b| b.to_string()).collect();
        listed.sort_unstable();
        let others = |names: Vec<String>| {
            let mut names: Vec<String> = names
                .into_iter()
                .filter(|name| name.starts_with("repro_") && name != "repro_all")
                .collect();
            names.sort_unstable();
            names
        };
        let declared = include_str!("../../Cargo.toml")
            .lines()
            .filter_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
            .map(String::from)
            .collect();
        assert_eq!(others(declared), listed, "[[bin]] sections");
        let sources = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin"))
            .expect("src/bin")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter_map(|f| Some(f.strip_suffix(".rs")?.to_string()))
            .collect();
        assert_eq!(others(sources), listed, "src/bin files");
        assert_eq!(summary(), "all 13 experiments reproduced.");
    }
}
