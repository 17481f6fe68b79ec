//! Helpers shared by integration tests (`mod common;`).

/// The statements of `tests/golden.sql`: comment lines dropped, split on
/// `;`.
pub fn golden_statements() -> Vec<String> {
    include_str!("../golden.sql")
        .lines()
        .filter(|l| !l.trim_start().starts_with("--"))
        .collect::<String>()
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}
