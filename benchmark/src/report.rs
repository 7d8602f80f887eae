//! What a pass reports and how it travels: each pass is a separate
//! process that prints one line per item on its standard output; the
//! orchestrator reads the lines back, merges the passes, prints the
//! metric table and writes the result files.

use crate::stats::{median, quartiles, Pctl};

/// One measured value. `note` carries what a reader needs beside it:
/// sample counts, the percentile actually used, trial quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub note: String,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOutput {
    pub metrics: Vec<Metric>,
    /// Queries attempted and failed in the measured part of the pass.
    pub attempted: u64,
    pub failed: u64,
    /// Output or shape checks that did not hold; any entry fails the run.
    pub problems: Vec<String>,
    /// Run facts that are not metrics (`pinned`, `op_hash`, ...).
    pub facts: Vec<(String, String)>,
}

impl PassOutput {
    pub fn put(&mut self, name: &str, value: f64, unit: &str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            note: note.into(),
        });
    }

    /// Reports a percentile with its sample count.
    pub fn put_pctl(&mut self, name: &str, p: Pctl, scale: f64, unit: &str) {
        // The note names the percentile actually used, which is lower
        // than the metric's name says when too few samples lay beyond.
        self.put(
            name,
            p.value * scale,
            unit,
            format!("n={} pctl={}", p.n, p.used * 100.0),
        );
    }

    /// Reports the median over trials of a per-trial figure, with the
    /// trial quartiles beside it.
    pub fn put_trials(&mut self, name: &str, per_trial: &[f64], unit: &str, extra: &str) {
        let (q1, _, q3) = quartiles(per_trial);
        let each: Vec<String> = per_trial.iter().map(|v| format!("{v:.4}")).collect();
        self.put(
            name,
            median(per_trial),
            unit,
            format!("q1={q1} q3={q3} trials={} {extra}", each.join("|")),
        );
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    pub fn problem(&mut self, text: impl Into<String>) {
        self.problems.push(text.into());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn fact_of(&self, key: &str) -> Option<&str> {
        self.facts
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Folds another pass in; later metrics of the same name win.
    pub fn merge(&mut self, other: PassOutput) {
        for m in other.metrics {
            self.metrics.retain(|x| x.name != m.name);
            self.metrics.push(m);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.facts.extend(other.facts);
    }

    /// The median over the single-trial reports of one pass: every metric
    /// becomes the median of its per-trial values, with the trial
    /// quartiles and values in the note; queries and problems add up; a
    /// fact the trials disagree on lists each trial's value.
    pub fn median_of(trials: Vec<PassOutput>) -> PassOutput {
        let mut out = PassOutput::default();
        let Some(first) = trials.first() else {
            return out;
        };
        for m in &first.metrics {
            let values: Vec<f64> = trials.iter().filter_map(|t| t.get(&m.name)).collect();
            out.put_trials(&m.name, &values, &m.unit, &m.note);
        }
        for (key, _) in &first.facts {
            let mut values: Vec<&str> = trials.iter().filter_map(|t| t.fact_of(key)).collect();
            values.dedup();
            out.fact(key, values.join("|"));
        }
        for t in trials {
            out.attempted += t.attempted;
            out.failed += t.failed;
            out.problems.extend(t.problems);
        }
        out
    }

    pub fn encode(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            s.push_str(&format!("M {} {} {} {}\n", m.name, m.value, m.unit, m.note));
        }
        s.push_str(&format!("A {} {}\n", self.attempted, self.failed));
        for p in &self.problems {
            s.push_str(&format!("P {}\n", p.replace('\n', " ")));
        }
        for (k, v) in &self.facts {
            s.push_str(&format!("F {k} {v}\n"));
        }
        s
    }

    /// Reads back [`PassOutput::encode`]; lines of any other shape are
    /// ignored.
    pub fn decode(text: &str) -> PassOutput {
        let mut out = PassOutput::default();
        for line in text.lines() {
            let Some((kind, rest)) = line.split_once(' ') else {
                continue;
            };
            match kind {
                "M" => {
                    let mut it = rest.splitn(4, ' ');
                    let (Some(name), Some(value), Some(unit)) = (it.next(), it.next(), it.next())
                    else {
                        continue;
                    };
                    if let Ok(value) = value.parse::<f64>() {
                        out.put(name, value, unit, it.next().unwrap_or(""));
                    }
                }
                "A" => {
                    if let Some((a, f)) = rest.split_once(' ') {
                        out.attempted += a.parse::<u64>().unwrap_or(0);
                        out.failed += f.parse::<u64>().unwrap_or(0);
                    }
                }
                "P" => out.problem(rest),
                "F" => {
                    if let Some((k, v)) = rest.split_once(' ') {
                        out.fact(k, v);
                    }
                }
                _ => {}
            }
        }
        out
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push(' '),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The one-line result object the contract asks for: exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`, the latter restricted to
/// `names` in that order.
pub fn result_line(out: &PassOutput, names: &[String]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .filter_map(|n| out.metrics.iter().find(|m| &m.name == n))
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// The per-workload result file: every metric with its note, the facts
/// and the problems.
pub fn result_file(workload: &str, out: &PassOutput) -> String {
    let mut s = format!("{{\n  \"workload\": {},\n", json_str(workload));
    s.push_str(&format!(
        "  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n",
        out.problems.is_empty() && out.failed == 0,
        out.attempted,
        out.failed
    ));
    let facts: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("    {}: {}", json_str(k), json_str(v)))
        .collect();
    s.push_str(&format!("  \"facts\": {{\n{}\n  }},\n", facts.join(",\n")));
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    s.push_str(&format!("  \"problems\": [{}],\n", problems.join(", ")));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"note\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit),
                json_str(&m.note)
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"metrics\": {{\n{}\n  }}\n}}\n",
        metrics.join(",\n")
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_output_round_trips_through_its_lines() {
        let mut o = PassOutput::default();
        o.put(
            "query_p50_us",
            1.4725,
            "us",
            "trials=5 q1=1.46 q3=1.48 n=900000",
        );
        o.put("rt.remote.lock_falls", 0.0, "count", "");
        o.attempted = 4_500_000;
        o.failed = 2;
        o.problem("ledger: live 3 != 4");
        o.fact("pinned", 1);
        let back = PassOutput::decode(&format!("noise line\n{}", o.encode()));
        assert_eq!(back, o);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = PassOutput::default();
        o.put("setup_s", 0.8127, "s", "");
        o.put("other", 1.0, "ns", "");
        o.attempted = 10;
        let line = result_line(&o, &["setup_s".to_string()]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        o.problem("x");
        assert!(result_line(&o, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn median_of_trials_keeps_counts_problems_and_facts() {
        let trial = |p50: f64, hash: &str, failed: u64| {
            let mut o = PassOutput::default();
            o.put("query_p50_us", p50, "us", "n=12000 pctl=50");
            o.attempted = 12_000;
            o.failed = failed;
            o.fact("pinned", 1);
            o.fact("op_hash", hash);
            o
        };
        let mut bad = trial(9.0, "cc", 2);
        bad.problem("2 of 12000 queries failed");
        let m = PassOutput::median_of(vec![trial(3.0, "aa", 0), trial(1.0, "bb", 0), bad]);
        assert_eq!(m.get("query_p50_us"), Some(3.0));
        assert_eq!(
            m.metrics[0].note,
            "q1=1 q3=9 trials=3.0000|1.0000|9.0000 n=12000 pctl=50"
        );
        assert_eq!((m.attempted, m.failed), (36_000, 2));
        assert_eq!(m.problems.len(), 1);
        assert_eq!(m.fact_of("pinned"), Some("1"));
        assert_eq!(m.fact_of("op_hash"), Some("aa|bb|cc"));
        assert_eq!(PassOutput::median_of(Vec::new()), PassOutput::default());
    }

    #[test]
    fn trial_medians_carry_their_quartiles() {
        let mut o = PassOutput::default();
        o.put_trials("queries_per_s", &[5.0, 1.0, 4.0, 2.0, 3.0], "1/s", "n=7");
        assert_eq!(o.get("queries_per_s"), Some(3.0));
        assert_eq!(
            o.metrics[0].note,
            "q1=1.5 q3=4.5 trials=5.0000|1.0000|4.0000|2.0000|3.0000 n=7"
        );
    }
}
