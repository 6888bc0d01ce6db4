//! Golden-file comparison shared by the digest tests (via `#[path]`
//! imports — files under `tests/support/` are not test crates).

use std::path::Path;

/// Compares `computed` with the committed golden file at `golden`; on a
/// mismatch prints every computed line and panics at the first difference.
pub fn assert_matches_golden(computed: &[String], golden: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(golden);
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let expected: Vec<&str> = text.lines().collect();
    if computed
        .iter()
        .map(String::as_str)
        .eq(expected.iter().copied())
    {
        return;
    }
    eprintln!("---- computed {golden} ({} lines) ----", computed.len());
    for l in computed {
        eprintln!("{l}");
    }
    eprintln!("---- end of computed {golden} ----");
    let first_diff = computed
        .iter()
        .zip(expected.iter())
        .position(|(c, e)| c != e)
        .unwrap_or(computed.len().min(expected.len()));
    panic!(
        "digest differs from {golden} at line {}: computed {:?}, golden {:?} \
         ({} computed lines, {} golden lines)",
        first_diff + 1,
        computed.get(first_diff),
        expected.get(first_diff),
        computed.len(),
        expected.len()
    );
}
