//! E2 — **Figure 2**: the generic LPF schedule shape — an irregular *head*
//! (first OPT steps) followed by a *rectangular tail* of width m/α and
//! length at most (α − 1)·OPT.
//!
//! For each tree shape and machine size we compute OPT on the full machine
//! (Corollary 5.4), build the LPF schedule on m/α processors, and measure
//! the tail: every step but the last must be exactly m/α wide (Lemma 5.2's
//! consequence) and the tail length must respect Lemma 5.3's α·OPT total.

use crate::{table::f3, Effort, Report, Table};
use flowtree_core::lpf::{lpf_levels, RectangleTail};
use flowtree_workloads::trees::shape_catalogue;

/// Run E2.
pub fn run(effort: Effort) -> Report {
    let mut report = Report::new(
        "E2",
        "Figure 2: LPF[m/α] = head (≤ OPT steps) + rectangular tail (≤ (α−1)·OPT)",
    );
    let alpha = 4usize;
    let ms: &[usize] = match effort {
        Effort::Quick => &[16, 64],
        Effort::Full => &[16, 64, 256],
    };
    let n = effort.pick(400, 4000);

    let mut table = Table::new(
        format!("LPF schedule shape, α = {alpha}"),
        &[
            "shape",
            "m",
            "OPT[m]",
            "total flow",
            "flow/OPT",
            "tail len",
            "tail bound",
            "rectangular",
        ],
    );
    let mut example: Option<String> = None;
    for m in ms {
        let mut rng = flowtree_workloads::rng(42);
        for (name, g) in shape_catalogue(n, &mut rng) {
            let p = m / alpha;
            let opt = g.opt_single_job(*m as u64);
            let levels = lpf_levels(&g, p);
            let shape = RectangleTail::measure(&levels, opt, p);
            let flow = levels.len() as u64;
            table.row(vec![
                name.to_string(),
                m.to_string(),
                opt.to_string(),
                flow.to_string(),
                f3(flow as f64 / opt as f64),
                shape.len.to_string(),
                ((alpha as u64 - 1) * opt).to_string(),
                shape.is_rectangle().to_string(),
            ]);
            if example.is_none() && shape.len > 2 {
                // Load profile: digits = per-step width; the head is ragged,
                // the tail constant at m/α.
                let profile: String = levels
                    .iter()
                    .map(|l| char::from_digit((l.len() % 36) as u32, 36).unwrap_or('#'))
                    .collect();
                example = Some(format!(
                    "{name} on m={m} (p={p}): per-step widths\n{profile}\n\
                     head = first {opt} steps, tail rectangle width {p}\n",
                ));
            }
        }
    }
    report.table(table);
    if let Some(art) = example {
        report.figure("example LPF width profile (head | rectangular tail)", art);
    }
    report.note(
        "Every tail is a full-width rectangle except its final step, and \
         total flow ≤ α·OPT — the structural properties Algorithm 𝒜's MC \
         phase relies on (Lemma 5.2, Lemma 5.3).",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tails_rectangular_and_bounded() {
        let r = run(Effort::Quick);
        let t = &r.tables[0];
        assert!(t.len() >= 10);
        for row in 0..t.len() {
            assert_eq!(t.cell(row, 7), "true", "non-rectangular tail in row {row}");
            let tail: f64 = t.cell(row, 5).parse().unwrap();
            let bound: f64 = t.cell(row, 6).parse().unwrap();
            assert!(tail <= bound, "tail {tail} > bound {bound}");
            // Lemma 5.3: flow within alpha * OPT.
            let ratio: f64 = t.cell(row, 4).parse().unwrap();
            assert!(ratio <= 4.0 + 1e-9);
        }
    }
}
