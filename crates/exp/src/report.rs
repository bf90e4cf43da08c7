//! Terminal rendering of report rows: aligned tables and ASCII plots.

use crate::paired::Row;

/// Renders `rows` as an aligned text table under the first row's keys —
/// the rows a [`Report`](crate::paired::Report) writes as JSON, with
/// strings unquoted. Every row must have as many values as the first; no
/// rows render as the empty string.
#[must_use]
pub fn text_table(rows: &[Row]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let header = first.0.iter().map(|(key, _)| key.clone()).collect();
    let lines: Vec<Vec<String>> = std::iter::once(header)
        .chain(rows.iter().map(Row::values))
        .collect();
    let cols = lines[0].len();
    let mut widths = vec![0; cols];
    for line in &lines {
        assert_eq!(line.len(), cols, "ragged table row");
        for (width, cell) in widths.iter_mut().zip(line) {
            *width = (*width).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (r, line) in lines.iter().enumerate() {
        for (i, (cell, width)) in line.iter().zip(&widths).enumerate() {
            let pad = " ".repeat(width - cell.chars().count());
            // Left-align the first column, right-align the others.
            if i == 0 {
                out.push_str(cell);
                out.push_str(&pad);
            } else {
                out.push_str(&format!("  {pad}{cell}"));
            }
        }
        out.push('\n');
        if r == 0 {
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
            out.push('\n');
        }
    }
    out
}

/// Plots series as ASCII (x = category index, y = value). Each series gets a
/// distinct glyph; a cell where two or more series land shows `=`, which
/// the legend then explains.
#[must_use]
pub fn ascii_plot(
    x_labels: &[String],
    series: &[(&str, Vec<f64>)],
    width: usize,
    height: usize,
) -> String {
    assert!(height >= 2 && width >= 8);
    const GLYPHS: [char; 8] = ['o', '*', '+', 'x', '#', '@', '%', '&'];
    const COLLISION: char = '=';
    let y_max = series
        .iter()
        .flat_map(|(_, ys)| ys.iter().copied())
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1e-9);
    let y_min = 0.0;
    let n = x_labels.len().max(2);
    let mut grid = vec![vec![' '; width]; height];
    for (s, (_, ys)) in series.iter().enumerate() {
        let glyph = GLYPHS[s % GLYPHS.len()];
        for (i, &y) in ys.iter().enumerate() {
            let gx = i * (width - 1) / (n - 1);
            let frac = ((y - y_min) / (y_max - y_min)).clamp(0.0, 1.0);
            let gy = height - 1 - (frac * (height - 1) as f64).round() as usize;
            let cell = &mut grid[gy][gx];
            *cell = if *cell == ' ' || *cell == glyph {
                glyph
            } else {
                COLLISION
            };
        }
    }
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let y_val = y_max - (y_max - y_min) * r as f64 / (height - 1) as f64;
        out.push_str(&format!("{y_val:>8.1} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>8} +{}\n", "", "-".repeat(width)));
    // X labels, spread across the width; the last one may run past it.
    let longest = x_labels.iter().map(|l| l.chars().count()).max();
    let mut label_line = vec![' '; width + 10 + longest.unwrap_or(0)];
    for (i, lab) in x_labels.iter().enumerate() {
        let gx = 10 + i * (width - 1) / (n - 1);
        for (k, ch) in lab.chars().enumerate() {
            label_line[gx + k] = ch;
        }
    }
    out.push_str(label_line.iter().collect::<String>().trim_end());
    out.push('\n');
    // Legend.
    for (s, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", GLYPHS[s % GLYPHS.len()], name));
    }
    if grid.iter().flatten().any(|&c| c == COLLISION) {
        out.push_str(&format!("  {COLLISION} two or more series\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns() {
        let t = text_table(&[
            Row::default().with("Name", "short").with("Value", 1u64),
            Row::default()
                .with("Name", "a-much-longer-name")
                .with("Value", 123u64),
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Name"));
        assert!(lines[3].contains("123"));
        // All rows same width.
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(text_table(&[]), "");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = text_table(&[
            Row::default().with("A", 1u64).with("B", 2u64),
            Row::default().with("A", 1u64),
        ]);
    }

    #[test]
    fn ascii_plot_renders_points_and_legend() {
        let labels: Vec<String> = (1..=10).map(|w: u64| w.to_string()).collect();
        let plot = ascii_plot(
            &labels,
            &[
                ("mct", (1..=10).map(f64::from).collect()),
                ("emct", (1..=10).rev().map(f64::from).collect()),
            ],
            40,
            10,
        );
        assert!(plot.contains('o'));
        assert!(plot.contains('*'));
        assert!(plot.contains("mct"));
        assert!(plot.contains("emct"));
        let label_line = plot.lines().nth(11).expect("a label line");
        assert!(label_line.ends_with("10"), "last label cut: {label_line:?}");
    }

    #[test]
    fn ascii_plot_marks_coinciding_series() {
        // Two equal series share every cell: neither glyph may hide the
        // other, so each point shows the collision glyph and the legend
        // says what it means. A third series elsewhere keeps its glyph.
        let labels: Vec<String> = (1..=4).map(|w: u64| w.to_string()).collect();
        let same: Vec<f64> = vec![2.0, 4.0, 6.0, 8.0];
        let plot = ascii_plot(
            &labels,
            &[("mct", same.clone()), ("mct*", same), ("low", vec![0.0; 4])],
            20,
            8,
        );
        let grid: String = plot.lines().take(8).collect();
        assert_eq!(
            grid.matches('=').count(),
            4,
            "one mark per shared point:\n{plot}"
        );
        assert!(
            !grid.contains('o') && !grid.contains('*'),
            "a glyph hid the other:\n{plot}"
        );
        assert_eq!(grid.matches('+').count(), 4);
        assert!(
            plot.lines().any(|l| l == "  = two or more series"),
            "{plot}"
        );
        assert!(plot.contains("  o mct\n") && plot.contains("  * mct*\n"));
    }
}
