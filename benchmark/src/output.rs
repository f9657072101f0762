//! The result line and its self-check against `BENCHMARK.json`.
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`; `metrics` maps
//! every metric that `BENCHMARK.json` lists for the mode (`end_to_end`
//! untraced, `per_layer` traced) to `{"value": <finite number>,
//! "unit": <its unit>}`. Before printing, the line is parsed back and
//! checked against that list, so a malformed result is never printed.

use std::collections::BTreeMap;
use uqsj::net::json::{self, Value};

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value });
    }

    fn render(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest string that parses back to the
            // same f64: every measured digit, nothing invented.
            out.push_str(&format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                Value::from(m.name.as_str()).render(),
                m.value,
                Value::from(m.unit).render()
            ));
        }
        out.push_str("}}");
        out
    }

    /// Render the result line and check it parses back into exactly the
    /// contract's shape with exactly the `expected` `(name, unit)` list.
    pub fn render_checked(&self, expected: &[(String, String)]) -> Result<String, String> {
        let line = self.render();
        let doc = json::parse(&line).map_err(|e| format!("result line is not JSON: {e}"))?;
        let Value::Object(top) = &doc else {
            return Err("result line is not a JSON object".into());
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("result keys are {keys:?}"));
        }
        if doc.get("correct").and_then(Value::as_bool).is_none() {
            return Err("`correct` is not a boolean".into());
        }
        let attempted = whole(doc.get("attempted")).ok_or("`attempted` is not a whole number")?;
        whole(doc.get("failed")).ok_or("`failed` is not a whole number")?;
        if attempted < 1.0 {
            return Err("`attempted` is below 1".into());
        }
        let Some(Value::Object(metrics)) = doc.get("metrics") else {
            return Err("`metrics` is not an object".into());
        };
        let want: BTreeMap<&str, &str> =
            expected.iter().map(|(n, u)| (n.as_str(), u.as_str())).collect();
        for (name, unit) in &want {
            let m = metrics.get(*name).ok_or_else(|| format!("metric {name} is missing"))?;
            let value = m.get("value").and_then(Value::as_f64);
            if !value.is_some_and(f64::is_finite) {
                return Err(format!("metric {name} has no finite value"));
            }
            if m.get("unit").and_then(Value::as_str) != Some(unit) {
                return Err(format!("metric {name} does not have unit {unit}"));
            }
            if let Value::Object(fields) = m {
                if fields.len() != 2 {
                    return Err(format!("metric {name} has keys besides value and unit"));
                }
            }
        }
        if let Some(extra) = metrics.keys().find(|k| !want.contains_key(k.as_str())) {
            return Err(format!("metric {extra} is not listed in BENCHMARK.json"));
        }
        Ok(line)
    }
}

fn whole(v: Option<&Value>) -> Option<f64> {
    v.and_then(Value::as_f64).filter(|x| x.fract() == 0.0 && *x >= 0.0)
}

/// The `(name, unit)` list of `section` (`end_to_end` or `per_layer`)
/// in the `BENCHMARK.json` of the working directory.
pub fn expected_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(section)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let unit = m.get("unit").and_then(Value::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_owned(), u.to_owned())),
                _ => Err(format!("BENCHMARK.json: a {section} entry lacks name or unit")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Vec<(String, String)> {
        vec![("a_s".into(), "s".into()), ("b".into(), "count".into())]
    }

    #[test]
    fn well_formed_line_passes() {
        let mut r = Report { correct: true, attempted: 3, failed: 0, metrics: vec![] };
        r.push("a_s", "s", 0.123456789);
        r.push("b", "count", 7.0);
        let line = r.render_checked(&expected()).unwrap();
        assert!(line.contains("0.123456789"));
    }

    #[test]
    fn missing_extra_or_non_finite_metrics_fail() {
        let mut r = Report { correct: true, attempted: 1, failed: 0, metrics: vec![] };
        r.push("a_s", "s", 1.0);
        assert!(r.render_checked(&expected()).is_err());
        r.push("b", "count", f64::NAN);
        assert!(r.render_checked(&expected()).is_err());
        r.metrics.pop();
        r.push("b", "ms", 1.0);
        assert!(r.render_checked(&expected()).is_err());
        r.metrics.pop();
        r.push("b", "count", 1.0);
        r.push("c", "count", 1.0);
        assert!(r.render_checked(&expected()).is_err());
    }
}
