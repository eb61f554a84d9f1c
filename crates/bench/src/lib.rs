//! # mx-bench
//!
//! Harness binaries that regenerate every table and figure of the MX+ paper's evaluation,
//! and the benches behind the [`harness`]. Each binary prints the same rows/series the
//! paper reports; the README section *Figure / table → binary index* maps each experiment
//! to its binary.
//!
//! Run an individual experiment with, for example:
//!
//! ```bash
//! cargo run --release -p mx-bench --bin tab03_perplexity
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod harness;

/// Simple fixed-width table printing for the harness binaries.
pub mod table {
    /// Prints a header row followed by a separator.
    pub fn header(title: &str, columns: &[&str]) {
        println!("\n=== {title} ===");
        let row: Vec<String> = columns.iter().map(|c| format!("{c:>14}")).collect();
        println!("{}", row.join(" "));
        println!("{}", "-".repeat(15 * columns.len()));
    }

    /// Prints one row: a label followed by formatted numeric cells.
    pub fn row(label: &str, cells: &[f64]) {
        let mut out = format!("{label:>14}");
        for c in cells {
            out.push_str(&format!(" {c:>14.4}"));
        }
        println!("{out}");
    }

    /// Prints one row of preformatted string cells.
    pub fn row_str(label: &str, cells: &[String]) {
        let mut out = format!("{label:>14}");
        for c in cells {
            out.push_str(&format!(" {c:>14}"));
        }
        println!("{out}");
    }
}

/// Shared evaluation settings for the model-quality harnesses, kept small enough that each
/// binary finishes in minutes on a laptop while still averaging over a few hundred tokens.
pub mod settings {
    use mx_llm::eval::{Dataset, EvalSettings};

    /// Standard quality-evaluation settings used by the table/figure binaries.
    ///
    /// `kl_gain` stays at 1.0: the reported perplexity is the paper's BF16 anchor inflated
    /// by exactly the measured KL divergence, with no additional scaling.
    #[must_use]
    pub fn quality(dataset: Dataset) -> EvalSettings {
        EvalSettings { dataset, seq_len: 48, total_tokens: 144, kl_gain: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_are_modest() {
        let s = settings::quality(mx_llm::eval::Dataset::Wiki2);
        assert!(s.total_tokens <= 256);
        assert!(s.seq_len <= 64);
    }

    #[test]
    fn table_helpers_do_not_panic() {
        table::header("demo", &["a", "b"]);
        table::row("x", &[1.0, 2.0]);
        table::row_str("y", &["p".into(), "q".into()]);
    }
}
