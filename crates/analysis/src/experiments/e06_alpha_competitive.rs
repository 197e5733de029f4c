//! E6 — **Lemma 5.3**: LPF on `m/α` processors is α-competitive against the
//! optimum on `m` processors.
//!
//! Sweeps α and tree shapes, reporting `flow(LPF[m/α]) / OPT[m]`; the ratio
//! must never exceed α, and the experiment shows where it is tight (wide
//! work-limited shapes) versus slack (span-limited shapes).

use crate::{table::f3, Effort, Report, Table};
use flowtree_core::lpf::lpf_levels;
use flowtree_workloads::trees::shape_catalogue;

/// Run E6.
pub fn run(effort: Effort) -> Report {
    let mut report = Report::new("E6", "Lemma 5.3: LPF[m/α] is α-competitive vs OPT[m]");
    let m = effort.pick(64usize, 256);
    let n = effort.pick(600, 6000);
    let mut table = Table::new(
        format!("flow(LPF[m/α]) / OPT[m], m = {m}"),
        &["shape", "α", "OPT[m]", "LPF[m/α] flow", "ratio", "≤ α"],
    );
    let mut worst: f64 = 0.0;
    for alpha in [1usize, 2, 4, 8] {
        let mut rng = flowtree_workloads::rng(13);
        for (name, g) in shape_catalogue(n, &mut rng) {
            let opt = g.opt_single_job(m as u64);
            let flow = lpf_levels(&g, m / alpha).len() as u64;
            let ratio = flow as f64 / opt as f64;
            worst = worst.max(ratio);
            table.row(vec![
                name.to_string(),
                alpha.to_string(),
                opt.to_string(),
                flow.to_string(),
                f3(ratio),
                (ratio <= alpha as f64 + 1e-9).to_string(),
            ]);
        }
    }
    report.table(table);
    report.note(format!(
        "Worst observed ratio {:.3}; the α bound is tight only for \
         work-limited shapes (star-like), while span-limited shapes (chains) \
         are unaffected by losing processors.",
        worst
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_never_exceeds_alpha() {
        let r = run(Effort::Quick);
        let t = &r.tables[0];
        for row in 0..t.len() {
            assert_eq!(t.cell(row, 5), "true", "Lemma 5.3 violated in row {row}");
        }
        // alpha = 1 rows are exactly optimal.
        for row in 0..t.len() {
            if t.cell(row, 1) == "1" {
                let ratio: f64 = t.cell(row, 4).parse().unwrap();
                assert!((ratio - 1.0).abs() < 1e-9);
            }
        }
        // The star rows at alpha = 8 should be close to tight (>= 4).
        let tight = (0..t.len()).any(|row| {
            t.cell(row, 0) == "star"
                && t.cell(row, 1) == "8"
                && t.cell(row, 4).parse::<f64>().unwrap() >= 4.0
        });
        assert!(tight, "expected near-tight ratio for star at alpha=8");
    }
}
