//! Plain-text table output for the figures `figs` regenerates.

/// One reproduced figure: labelled rows × labelled columns of numbers.
#[derive(Debug, Clone)]
pub struct FigTable {
    /// Figure id and caption, e.g. "Figure 8a — DH, normalized time".
    pub title: String,
    /// Label of the row dimension (e.g. "skew z").
    pub row_label: String,
    /// Column headers (e.g. strategy labels).
    pub columns: Vec<String>,
    /// `(row name, values)` in presentation order.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl FigTable {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len().max(8)).collect();
        let row_w = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .chain([self.row_label.len()])
            .max()
            .unwrap_or(8);
        for (_, vals) in &self.rows {
            for (i, v) in vals.iter().enumerate() {
                widths[i] = widths[i].max(format!("{v:.3}").len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        out.push_str(&format!("{:<row_w$}", self.row_label));
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
        for (name, vals) in &self.rows {
            out.push_str(&format!("{name:<row_w$}"));
            for (v, w) in vals.iter().zip(&widths) {
                out.push_str(&format!("  {:>w$.3}", v));
            }
            out.push('\n');
        }
        out
    }

    /// Value at `(row, column)` by label.
    pub fn get(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        let (_, vals) = self.rows.iter().find(|(n, _)| n == row)?;
        vals.get(c).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FigTable {
        FigTable {
            title: "Figure X — test".into(),
            row_label: "skew".into(),
            columns: vec!["NO".into(), "FO".into()],
            rows: vec![("0".into(), vec![1.0, 0.9]), ("1.5".into(), vec![1.4, 0.6])],
        }
    }

    #[test]
    fn renders_all_cells() {
        let s = table().render();
        assert!(s.contains("Figure X"));
        assert!(s.contains("NO"));
        assert!(s.contains("0.600"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn get_by_labels() {
        let t = table();
        assert_eq!(t.get("1.5", "FO"), Some(0.6));
        assert_eq!(t.get("1.5", "XX"), None);
        assert_eq!(t.get("9", "FO"), None);
    }
}
