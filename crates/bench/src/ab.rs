//! The summary behind `scripts/ab.sh`, which runs `flowbench` on two
//! revisions in alternating pairs that share a seed.
//!
//! Each run's last line is flowbench's result object,
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! For every metric the summary prints both medians, the base revision's
//! interquartile range, the pairs the head revision won, and a verdict.
//! A verdict of change needs all three of:
//!
//! * at least [`MIN_PAIRS`] pairs;
//! * the head better (or worse) in at least nine of every ten pairs, where
//!   a tie counts for neither side;
//! * the medians apart, in that direction, by more than the base's IQR.
//!
//! Medians and quartiles follow flowbench's order statistics: the median of
//! an even count is the mean of the middle two, and a quartile is the
//! nearest-rank sample.

use serde::Value;

/// Fewest pairs that can carry a verdict of change.
pub const MIN_PAIRS: usize = 10;

/// Which way a metric improves (BENCHMARK.json's `"better"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// The outcome for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The head is better by the rule.
    Better,
    /// The head is worse by the rule.
    Worse,
    /// Enough pairs, and neither side meets the rule.
    NoChange,
    /// Fewer than [`MIN_PAIRS`] pairs: no verdict either way.
    TooFewPairs,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::NoChange => "no change",
            Verdict::TooFewPairs => "no verdict (too few pairs)",
        })
    }
}

/// Median of `xs` (mean of the middle two for an even count). Panics on no
/// samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank 75th less 25th percentile of `xs`. Panics on no samples.
pub fn iqr(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let rank = |p: f64| ((p * v.len() as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, v.len()) - 1;
    v[rank(75.0)] - v[rank(25.0)]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Pairs in which `head` beat `base`, and pairs in which it lost.
pub fn wins_losses(base: &[f64], head: &[f64], better: Better) -> (usize, usize) {
    let beats = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let wins = base.iter().zip(head).filter(|&(&b, &h)| beats(h, b)).count();
    let losses = base.iter().zip(head).filter(|&(&b, &h)| beats(b, h)).count();
    (wins, losses)
}

/// The rule above, over the pairs `(base[i], head[i])`.
pub fn verdict(base: &[f64], head: &[f64], better: Better) -> Verdict {
    assert_eq!(base.len(), head.len(), "every pair has one run of each side");
    let pairs = base.len();
    if pairs < MIN_PAIRS {
        return Verdict::TooFewPairs;
    }
    let (wins, losses) = wins_losses(base, head, better);
    let gain = match better {
        Better::Lower => median(base) - median(head),
        Better::Higher => median(head) - median(base),
    };
    let spread = iqr(base);
    if 10 * wins >= 9 * pairs && gain > spread {
        Verdict::Better
    } else if 10 * losses >= 9 * pairs && -gain > spread {
        Verdict::Worse
    } else {
        Verdict::NoChange
    }
}

/// The metrics of one result line, in the order printed, and whether the
/// run's checks passed.
pub fn parse_run(line: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("not a result line: {e}"))?;
    let correct = v.get("correct").and_then(Value::as_bool).ok_or("no \"correct\" field")?;
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        return Err("no \"metrics\" object".into());
    };
    let mut out = Vec::with_capacity(metrics.len());
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64);
        out.push((name.clone(), value.ok_or_else(|| format!("{name}: no numeric value"))?));
    }
    Ok((correct, out))
}

/// Each metric's name and direction from a BENCHMARK.json document's
/// `end_to_end` and `per_layer` lists.
pub fn directions(spec: &str) -> Result<Vec<(String, Better)>, String> {
    let v: Value = serde_json::from_str(spec).map_err(|e| format!("benchmark spec: {e}"))?;
    let mut out = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        for m in v.get(list).and_then(Value::as_array).unwrap_or(&[]) {
            let name = m.get("name").and_then(Value::as_str).ok_or("a metric has no name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: \"better\" is neither lower nor higher")),
            };
            out.push((name.to_string(), better));
        }
    }
    Ok(out)
}

/// The summary table of `base` and `head` result lines (pair `i` is
/// `(base[i], head[i])`) under the directions in `spec`.
pub fn summarize<S: AsRef<str>>(spec: &str, base: &[S], head: &[S]) -> Result<String, String> {
    if base.len() != head.len() || base.is_empty() {
        return Err(format!("{} base and {} head runs do not make pairs", base.len(), head.len()));
    }
    let dirs = directions(spec)?;
    let parse =
        |lines: &[S]| lines.iter().map(|l| parse_run(l.as_ref())).collect::<Result<Vec<_>, _>>();
    let (base, head) = (parse(base)?, parse(head)?);
    let correct = |runs: &[(bool, _)]| runs.iter().filter(|r| r.0).count();
    let pairs = base.len();
    let mut out = format!(
        "pairs: {pairs}; runs with every check passed: base {}/{pairs}, head {}/{pairs}\n",
        correct(&base),
        correct(&head)
    );
    out += &format!(
        "{:<34} {:>18} {:>18} {:>16} {:>6}  verdict\n",
        "metric", "base median", "head median", "base IQR", "wins"
    );
    for (name, _) in &base[0].1 {
        let better = dirs.iter().find(|(n, _)| n == name).map(|d| d.1);
        let values = |runs: &[(bool, Vec<(String, f64)>)]| {
            runs.iter()
                .map(|r| r.1.iter().find(|(n, _)| n == name).map(|m| m.1))
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| format!("{name}: missing from a run"))
        };
        let (b, h) = (values(&base)?, values(&head)?);
        let (wins, verdict) = match better {
            Some(better) => (
                format!("{}/{pairs}", wins_losses(&b, &h, better).0),
                verdict(&b, &h, better).to_string(),
            ),
            None => ("-".to_string(), "no direction in the spec".to_string()),
        };
        out += &format!(
            "{name:<34} {:>18.6} {:>18.6} {:>16.6} {wins:>6}  {verdict}\n",
            median(&b),
            median(&h),
            iqr(&b)
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_follow_flowbench() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Nearest rank over 1..=10: p25 is the 3rd sample, p75 the 8th.
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(iqr(&xs), 5.0);
        assert_eq!(iqr(&[7.0]), 0.0);
    }

    #[test]
    fn nine_of_ten_and_beyond_the_iqr_is_a_change() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        // Lower by 20 in every pair: better for a lower-is-better metric,
        // worse for a higher-is-better one.
        let head: Vec<f64> = base.iter().map(|b| b - 20.0).collect();
        assert_eq!(verdict(&base, &head, Better::Lower), Verdict::Better);
        assert_eq!(verdict(&base, &head, Better::Higher), Verdict::Worse);
        // Nine wins of ten still count.
        let mut nine = head.clone();
        nine[4] = base[4] + 1.0;
        assert_eq!(verdict(&base, &nine, Better::Lower), Verdict::Better);
        // Eight do not.
        nine[5] = base[5];
        assert_eq!(verdict(&base, &nine, Better::Lower), Verdict::NoChange);
    }

    #[test]
    fn a_median_gap_within_the_iqr_is_no_change() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + 10.0 * f64::from(i)).collect();
        // Lower in every pair, but by 1 against an IQR of 50.
        let head: Vec<f64> = base.iter().map(|b| b - 1.0).collect();
        assert_eq!(verdict(&base, &head, Better::Lower), Verdict::NoChange);
    }

    #[test]
    fn fewer_than_ten_pairs_carry_no_verdict() {
        let base = [10.0; 9];
        let head = [1.0; 9];
        assert_eq!(verdict(&base, &head, Better::Lower), Verdict::TooFewPairs);
        assert_eq!(verdict(&base, &base, Better::Lower), Verdict::TooFewPairs);
    }

    #[test]
    fn identical_runs_are_no_change() {
        let runs = [5.0; 12];
        assert_eq!(verdict(&runs, &runs, Better::Higher), Verdict::NoChange);
        assert_eq!(wins_losses(&runs, &runs, Better::Higher), (0, 0));
    }

    #[test]
    fn summary_reads_result_lines_and_directions() {
        let spec = r#"{"end_to_end":[{"name":"peak_rss_mb","better":"lower"}],
            "per_layer":[{"name":"x","better":"higher"}]}"#;
        let line = |rss: f64| {
            format!(
                r#"{{"correct":true,"attempted":1,"failed":0,"metrics":{{"peak_rss_mb":{{"value":{rss},"unit":"MiB"}}}}}}"#
            )
        };
        let base: Vec<String> = (0..10).map(|i| line(90.0 + f64::from(i) / 10.0)).collect();
        let head: Vec<String> = (0..10).map(|i| line(57.0 + f64::from(i) / 10.0)).collect();
        let table = summarize(spec, &base, &head).unwrap();
        assert!(
            table.starts_with("pairs: 10; runs with every check passed: base 10/10, head 10/10")
        );
        let row = table.lines().find(|l| l.starts_with("peak_rss_mb")).unwrap();
        assert!(row.ends_with("10/10  better"), "{row}");
        assert!(summarize(spec, &base, &head[1..]).is_err());
        assert!(summarize(spec, &["{}"], &["{}"]).is_err());
    }
}
