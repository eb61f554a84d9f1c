//! Workspace file discovery: every first-party `.rs` file, skipping build output,
//! vendored crates, VCS metadata, and the analyzer's own lint fixtures (which exist
//! to violate the rules).
//!
//! Skipping is enforced twice: directories named in `SKIP_DIRS` are pruned during
//! the walk, and — defensively — any collected path containing such a component at
//! *any* depth is filtered out, so a nested `crates/foo/target/` or a symlinked
//! vendor tree can never leak build output into the lint set.

use std::io;
use std::path::{Path, PathBuf};

/// Directory names that never contain first-party lintable sources.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];

/// Is any component of this relative path a skipped directory name?
fn has_skipped_component(rel: &Path) -> bool {
    rel.iter().any(|c| c.to_str().is_some_and(|name| SKIP_DIRS.contains(&name) || name.starts_with('.')))
}

/// Collect all lintable `.rs` files under `root`, as paths relative to `root`,
/// sorted for deterministic reports.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    visit(root, root, &mut files)?;
    files.retain(|rel| !has_skipped_component(rel.as_path()));
    files.sort();
    Ok(files)
}

fn visit(root: &Path, dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            visit(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            files.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// A throwaway directory tree, removed on drop.
    struct TempTree {
        root: PathBuf,
    }

    impl TempTree {
        fn new(tag: &str) -> TempTree {
            let root = std::env::temp_dir().join(format!("mx-analyze-walk-{}-{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&root);
            fs::create_dir_all(&root).expect("create temp tree");
            TempTree { root }
        }

        fn write(&self, rel: &str) {
            let path = self.root.join(rel);
            fs::create_dir_all(path.parent().expect("parent")).expect("mkdirs");
            fs::write(path, "fn f() {}\n").expect("write");
        }
    }

    impl Drop for TempTree {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn nested_target_and_vendor_are_not_scanned() {
        let tree = TempTree::new("nested");
        tree.write("src/lib.rs");
        tree.write("crates/foo/src/lib.rs");
        // Nested build output *inside* a crate, not at the workspace top level.
        tree.write("crates/foo/target/debug/build/probe.rs");
        tree.write("crates/foo/vendor/dep/src/lib.rs");
        tree.write("target/debug/junk.rs");
        tree.write("crates/analyze/fixtures/bad.rs");
        let files = workspace_files(&tree.root).expect("walk");
        let names: Vec<String> = files.iter().map(|p| p.display().to_string()).collect();
        assert_eq!(names, vec!["crates/foo/src/lib.rs".to_string(), "src/lib.rs".to_string()], "{names:?}");
    }

    #[test]
    fn defensive_component_filter_rejects_skipped_paths() {
        assert!(has_skipped_component(Path::new("crates/foo/target/debug/x.rs")));
        assert!(has_skipped_component(Path::new("vendor/dep/lib.rs")));
        assert!(has_skipped_component(Path::new("crates/analyze/fixtures/bad.rs")));
        assert!(has_skipped_component(Path::new(".hidden/x.rs")));
        assert!(!has_skipped_component(Path::new("crates/foo/src/targets.rs")));
        assert!(!has_skipped_component(Path::new("src/serving.rs")));
    }
}
