//! Rendering job graphs for inspection: a compact depth-level text sketch.

use crate::graph::JobGraph;

/// One line per depth level: `d=3 | v4 v5 v9` — a quick structural sketch.
pub fn depth_sketch(g: &JobGraph) -> String {
    use std::fmt::Write;
    let depths = g.depths();
    let max_d = depths.iter().copied().max().unwrap_or(0);
    let mut s = String::new();
    for d in 1..=max_d {
        let _ = write!(s, "d={d:<3}|");
        for v in g.nodes() {
            if depths[v.index()] == d {
                let _ = write!(s, " v{}", v.0);
            }
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::caterpillar;

    #[test]
    fn sketch_lists_levels() {
        let g = caterpillar(2, &[1, 0]);
        let s = depth_sketch(&g);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("v0"));
        assert!(lines[1].contains("v1") && lines[1].contains("v2"));
    }
}
