//! Catalog statistics: per-table row counts and per-column
//! distinct-value counts.
//!
//! The paper's driver caches table *metadata* (names, columns, types —
//! §3.3) but carries no notion of table *contents*. A [`CatalogStats`]
//! snapshot describes them: row counts per table,
//! number-of-distinct-values (NDV) and uniqueness per column. Only the
//! optimizer shell takes a snapshot today, and it reads none; both go
//! together (ROADMAP B2).
//!
//! Stats are deliberately decoupled from the live [`crate::MetadataApi`]:
//! they describe *data*, not *schema*, they go stale on their own
//! schedule, and a reader must keep working when nobody has gathered
//! any. Every lookup therefore falls back to documented defaults:
//!
//! * an unknown table is assumed to hold [`CatalogStats::default_rows`]
//!   rows ([`DEFAULT_TABLE_ROWS`] unless overridden);
//! * an unknown column is assumed to take `max(1, rows / 10)` distinct
//!   values — many-rows-per-value, the conservative direction for
//!   equality selectivity — and is never assumed unique.
//!
//! Uniqueness is opt-in (`unique()` on the builder): a wrong uniqueness
//! claim would let a reader call real work redundant, while a missing
//! one merely costs an estimate.

use std::collections::HashMap;

/// Row count assumed for tables nobody has gathered stats for.
pub const DEFAULT_TABLE_ROWS: u64 = 1_000;

/// Statistics for one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct (non-NULL) values.
    pub ndv: u64,
    /// Declared unique (a key): every row has its own value.
    pub unique: bool,
}

impl ColumnStats {
    /// The fallback for columns without gathered stats over a table of
    /// `rows` rows: `max(1, rows / 10)` distinct values, not unique.
    pub fn assumed(rows: u64) -> ColumnStats {
        ColumnStats {
            ndv: (rows / 10).max(1),
            unique: false,
        }
    }
}

/// Statistics for one table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    /// Row count at gathering time.
    pub rows: u64,
    /// Per-column stats, keyed by (case-sensitive) column name.
    pub columns: HashMap<String, ColumnStats>,
}

/// A statistics snapshot over the presented tables.
///
/// Built either empty (everything answered by defaults) or via the
/// builder-style [`CatalogStats::table`]:
///
/// ```
/// use aldsp_catalog::stats::CatalogStats;
///
/// let stats = CatalogStats::new()
///     .table("CUSTOMERS", 25, |t| t.unique("CUSTOMERID").ndv("REGION", 4));
/// assert_eq!(stats.rows("CUSTOMERS"), 25);
/// assert_eq!(stats.column("CUSTOMERS", "REGION").ndv, 4);
/// assert!(stats.column("CUSTOMERS", "CUSTOMERID").unique);
/// // Defaults for the ungathered:
/// assert_eq!(stats.rows("ORDERS"), CatalogStats::default().default_rows);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogStats {
    tables: HashMap<String, TableStats>,
    /// Row count assumed for tables without an entry.
    pub default_rows: u64,
}

impl Default for CatalogStats {
    fn default() -> CatalogStats {
        CatalogStats::new()
    }
}

impl CatalogStats {
    /// An empty snapshot: every lookup is answered by the defaults.
    pub fn new() -> CatalogStats {
        CatalogStats {
            tables: HashMap::new(),
            default_rows: DEFAULT_TABLE_ROWS,
        }
    }

    /// Overrides the assumed row count for ungathered tables.
    pub fn with_default_rows(mut self, rows: u64) -> CatalogStats {
        self.default_rows = rows;
        self
    }

    /// Records stats for one table; `build` fills in column stats.
    pub fn table(
        mut self,
        name: impl Into<String>,
        rows: u64,
        build: impl FnOnce(TableStatsBuilder) -> TableStatsBuilder,
    ) -> CatalogStats {
        let builder = build(TableStatsBuilder {
            stats: TableStats {
                rows,
                columns: HashMap::new(),
            },
        });
        self.tables.insert(name.into(), builder.stats);
        self
    }

    /// Whether stats were gathered for `table`.
    pub fn has_table(&self, table: &str) -> bool {
        self.tables.contains_key(table)
    }

    /// Row count for `table`, falling back to [`CatalogStats::default_rows`].
    pub fn rows(&self, table: &str) -> u64 {
        self.tables.get(table).map_or(self.default_rows, |t| t.rows)
    }

    /// Stats for `table.column`, falling back to [`ColumnStats::assumed`]
    /// over the table's (possibly assumed) row count.
    pub fn column(&self, table: &str, column: &str) -> ColumnStats {
        let rows = self.rows(table);
        self.tables
            .get(table)
            .and_then(|t| t.columns.get(column))
            .copied()
            .unwrap_or_else(|| ColumnStats::assumed(rows))
    }
}

/// Builder for one table's column stats (see [`CatalogStats::table`]).
#[derive(Debug)]
pub struct TableStatsBuilder {
    stats: TableStats,
}

impl TableStatsBuilder {
    /// Records a distinct-value count for `column`.
    pub fn ndv(mut self, column: impl Into<String>, ndv: u64) -> TableStatsBuilder {
        self.stats.columns.insert(
            column.into(),
            ColumnStats {
                ndv: ndv.max(1),
                unique: false,
            },
        );
        self
    }

    /// Declares `column` unique: NDV equals the row count, and a reader
    /// may treat deduplication over it as redundant.
    pub fn unique(mut self, column: impl Into<String>) -> TableStatsBuilder {
        let rows = self.stats.rows;
        self.stats.columns.insert(
            column.into(),
            ColumnStats {
                ndv: rows.max(1),
                unique: true,
            },
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_answer_everything() {
        let stats = CatalogStats::new();
        assert_eq!(stats.rows("NOWHERE"), DEFAULT_TABLE_ROWS);
        let col = stats.column("NOWHERE", "X");
        assert_eq!(col.ndv, DEFAULT_TABLE_ROWS / 10);
        assert!(!col.unique);
    }

    #[test]
    fn gathered_stats_win_over_defaults() {
        let stats = CatalogStats::new().table("T", 500, |t| t.unique("ID").ndv("KIND", 3));
        assert_eq!(stats.rows("T"), 500);
        assert_eq!(stats.column("T", "ID").ndv, 500);
        assert!(stats.column("T", "ID").unique);
        assert_eq!(stats.column("T", "KIND").ndv, 3);
        // Ungathered column of a gathered table: assumed from real rows.
        assert_eq!(stats.column("T", "OTHER").ndv, 50);
    }

    #[test]
    fn assumed_ndv_never_hits_zero() {
        assert_eq!(ColumnStats::assumed(0).ndv, 1);
        assert_eq!(ColumnStats::assumed(5).ndv, 1);
        let stats = CatalogStats::new().table("EMPTY", 0, |t| t.unique("ID"));
        assert_eq!(stats.column("EMPTY", "ID").ndv, 1);
    }
}
