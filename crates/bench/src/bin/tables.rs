//! Regenerates every table and figure of the paper's evaluation and the
//! ablations, prints them, and splices them into EXPERIMENTS.md between
//! its `<!-- generated:NAME -->` markers.
//!
//! ```text
//! cargo run --release -p condor-bench --bin tables
//! ```

use condor_bench::{experiments_blocks, splice_blocks, EXPERIMENTS_MD};

fn main() {
    let blocks = experiments_blocks();
    for (name, body) in &blocks {
        println!("== {name} ==\n{body}\n");
    }
    let result = std::fs::read_to_string(EXPERIMENTS_MD)
        .map_err(|e| e.to_string())
        .and_then(|doc| splice_blocks(&doc, &blocks))
        .and_then(|doc| std::fs::write(EXPERIMENTS_MD, doc).map_err(|e| e.to_string()));
    if let Err(e) = result {
        eprintln!("{EXPERIMENTS_MD}: {e}");
        std::process::exit(1);
    }
}
