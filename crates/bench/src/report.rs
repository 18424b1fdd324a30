//! Minimal fixed-width table rendering for the `repro` binary.

/// Renders a table: header row plus data rows, columns padded to the
/// widest cell. Returns the formatted string (callers print it).
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch in table {title:?}");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = header
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    out.push_str(&fmt_row(&header_cells));
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
    }
    out
}

/// Formats a `Duration` as fractional milliseconds.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Formats a `Duration` as fractional microseconds.
pub fn us(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let t = render_table(
            "T",
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "23".into()],
            ],
        );
        assert!(t.contains("== T =="));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[3].contains("a") && lines[4].contains("long-name"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let _ = render_table("T", &["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn ms_format() {
        assert_eq!(ms(std::time::Duration::from_micros(1500)), "1.500");
    }

    #[test]
    fn us_format() {
        assert_eq!(us(std::time::Duration::from_nanos(1500)), "1.500");
    }
}
