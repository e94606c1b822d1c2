//! Terminal bar charts: the figures of the paper, rendered as text.
//!
//! Every figure in the paper is a bar chart over the 26 benchmarks (or a
//! line over a sweep). [`BarChart`] renders horizontal bars so a figure
//! can show the shape at a glance in addition to the exact table.

use std::fmt::Write as _;

/// A horizontal bar chart.
///
/// # Examples
///
/// ```
/// use tcp_experiments::plot::BarChart;
///
/// let mut chart = BarChart::new("demo", 20);
/// chart.bar("alpha", 1.0);
/// chart.bar("beta", 2.0);
/// let text = chart.render();
/// assert!(text.contains("alpha"));
/// assert!(text.contains('█'));
/// ```
#[derive(Clone, Debug)]
pub struct BarChart {
    title: String,
    width: usize,
    bars: Vec<(String, f64)>,
}

impl BarChart {
    /// Creates an empty chart whose longest bar spans `width` cells.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(title: &str, width: usize) -> Self {
        assert!(width > 0, "chart width must be nonzero");
        BarChart {
            title: title.to_owned(),
            width,
            bars: Vec::new(),
        }
    }

    /// Appends a labelled value. Negative values render with a `▌`-style
    /// marker on the zero line (improvement charts can dip below zero).
    pub fn bar(&mut self, label: &str, value: f64) {
        self.bars.push((label.to_owned(), value));
    }

    /// Number of bars added.
    pub fn len(&self) -> usize {
        self.bars.len()
    }

    /// `true` if no bars were added.
    pub fn is_empty(&self) -> bool {
        self.bars.is_empty()
    }

    fn scaled(&self, v: f64, max: f64) -> usize {
        if v <= 0.0 || max <= 0.0 {
            return 0;
        }
        ((v / max * self.width as f64).round() as usize).min(self.width)
    }

    /// Renders the chart.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "-- {} --", self.title);
        if self.bars.is_empty() {
            let _ = writeln!(out, "(no data)");
            return out;
        }
        let label_w = self.bars.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let max = self.bars.iter().map(|&(_, v)| v).fold(f64::MIN, f64::max);
        for (label, value) in &self.bars {
            let n = self.scaled(*value, max);
            let bar = "█".repeat(n);
            let marker = if *value < 0.0 { "▌" } else { "" };
            let _ = writeln!(out, "{label:<label_w$} │{marker}{bar} {value:.1}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_bar_fills_width() {
        let mut c = BarChart::new("t", 10);
        c.bar("a", 5.0);
        c.bar("b", 10.0);
        let r = c.render();
        let b_line = r.lines().find(|l| l.starts_with('b')).unwrap();
        assert_eq!(b_line.matches('█').count(), 10);
        let a_line = r.lines().find(|l| l.starts_with('a')).unwrap();
        assert_eq!(a_line.matches('█').count(), 5);
    }

    #[test]
    fn negative_values_marked_without_bars() {
        let mut c = BarChart::new("t", 10);
        c.bar("down", -5.0);
        c.bar("up", 5.0);
        let r = c.render();
        let down = r.lines().find(|l| l.starts_with("down")).unwrap();
        assert!(down.contains('▌'));
        assert_eq!(down.matches('█').count(), 0);
    }

    #[test]
    fn empty_chart_says_so() {
        let c = BarChart::new("t", 10);
        assert!(c.is_empty());
        assert!(c.render().contains("no data"));
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        let _ = BarChart::new("t", 0);
    }
}
