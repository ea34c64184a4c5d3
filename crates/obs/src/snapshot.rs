//! The one telemetry model: a [`Snapshot`] is a list of named counter,
//! gauge and histogram families, each a list of labelled series.
//!
//! Every bank writes its numbers into a snapshot once (the `export`
//! methods, gathered by [`crate::Registry::snapshot`]). The snapshot
//! then has exactly two renderings — Prometheus text
//! ([`Snapshot::to_prometheus`], served at `/metrics`) and JSON
//! ([`Snapshot::to_json`], served at `/snapshot.json`) — and one reader,
//! [`Snapshot::parse`], which every `cfgtag watch` view decodes with.
//! `/metrics` expands a histogram through [`Family::groups`]:
//! cumulative `_bucket` series labelled with each bucket's largest
//! member (`le`, inclusive), `_sum`, `_count`, and a `_quantile` gauge at
//! [`QUANTILES`] (quantile `1` is the max). `/snapshot.json` carries the
//! buckets themselves, so a parsed snapshot expands to the same series.

use crate::histogram::HistogramSnapshot;
use crate::json::{self, Json};
use std::fmt::Write as _;

/// Quantiles every histogram series is rendered with; `1` is the max.
pub const QUANTILES: [(f64, &str); 5] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999"), (1.0, "1")];

/// What a family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic count.
    Counter,
    /// A value that may go up and down.
    Gauge,
    /// A distribution of observations.
    Histogram,
}

impl Kind {
    /// The Prometheus `# TYPE` word, also the JSON `type` field.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One series' value: a number for counters and gauges, a distribution
/// for histograms.
#[derive(Debug, Clone, PartialEq)]
pub enum Reading {
    /// A counter or gauge reading.
    Number(f64),
    /// A histogram reading.
    Histogram(HistogramSnapshot),
}

/// One labelled series of a family.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// `(name, value)` label pairs, in rendering order.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: Reading,
}

impl Series {
    /// The value of label `key`, if the series carries it.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The number, for a counter or gauge series.
    pub fn number(&self) -> Option<f64> {
        match self.value {
            Reading::Number(v) => Some(v),
            Reading::Histogram(_) => None,
        }
    }

    /// The distribution, for a histogram series.
    pub fn histogram(&self) -> Option<&HistogramSnapshot> {
        match &self.value {
            Reading::Histogram(h) => Some(h),
            Reading::Number(_) => None,
        }
    }

    fn matches(&self, labels: &[(&str, &str)]) -> bool {
        labels.iter().all(|(k, v)| self.label(k) == Some(*v))
    }
}

/// A named family of series of one kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Metric name, e.g. `cfgtag_bytes_in_total`.
    pub name: String,
    /// What the series measure.
    pub kind: Kind,
    /// The series, in rendering order.
    pub series: Vec<Series>,
}

/// One flat sample of the Prometheus exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Series name (a histogram's carries its `_bucket`/`_sum`/... suffix).
    pub name: String,
    /// Label pairs, `le` or `quantile` last for histogram samples.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

/// The samples announced by one `# TYPE` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// The announced name.
    pub name: String,
    /// The announced type.
    pub kind: Kind,
    /// The samples, in rendering order.
    pub samples: Vec<Sample>,
}

impl Family {
    /// Append a counter or gauge series.
    pub fn push(&mut self, labels: &[(&str, &str)], value: f64) -> &mut Family {
        self.series.push(Series { labels: owned(labels), value: Reading::Number(value) });
        self
    }

    /// Append a histogram series.
    pub fn push_histogram(&mut self, labels: &[(&str, &str)], h: HistogramSnapshot) -> &mut Family {
        self.series.push(Series { labels: owned(labels), value: Reading::Histogram(h) });
        self
    }

    /// The first series carrying every label pair in `labels`.
    pub fn find(&self, labels: &[(&str, &str)]) -> Option<&Series> {
        self.series.iter().find(|s| s.matches(labels))
    }

    /// The family as Prometheus samples: one group for a counter or
    /// gauge; for a histogram, its cumulative buckets (`le` inclusive,
    /// non-empty buckets only, then `+Inf`), `_sum` and `_count`, then a
    /// `_quantile` gauge group.
    pub fn groups(&self) -> Vec<Group> {
        let sample =
            |suffix: &str, labels: &[(String, String)], extra: Option<(&str, String)>, value| {
                let mut labels = labels.to_vec();
                labels.extend(extra.map(|(k, v)| (k.to_owned(), v)));
                Sample { name: format!("{}{suffix}", self.name), labels, value }
            };
        let mut main = Vec::new();
        let mut quantiles = Vec::new();
        for s in &self.series {
            match &s.value {
                Reading::Number(v) => main.push(sample("", &s.labels, None, *v)),
                Reading::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (le, n) in h.buckets() {
                        cumulative = cumulative.saturating_add(n);
                        let le = Some(("le", le.to_string()));
                        main.push(sample("_bucket", &s.labels, le, cumulative as f64));
                    }
                    let inf = Some(("le", "+Inf".to_owned()));
                    main.push(sample("_bucket", &s.labels, inf, h.count as f64));
                    main.push(sample("_sum", &s.labels, None, h.sum as f64));
                    main.push(sample("_count", &s.labels, None, h.count as f64));
                    for (q, tag) in QUANTILES {
                        let q_label = Some(("quantile", tag.to_owned()));
                        quantiles.push(sample(
                            "_quantile",
                            &s.labels,
                            q_label,
                            h.quantile(q) as f64,
                        ));
                    }
                }
            }
        }
        let mut groups = vec![Group { name: self.name.clone(), kind: self.kind, samples: main }];
        if self.kind == Kind::Histogram {
            let name = format!("{}_quantile", self.name);
            groups.push(Group { name, kind: Kind::Gauge, samples: quantiles });
        }
        groups
    }
}

fn owned(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect()
}

/// Escape a label value per the Prometheus text format.
fn label_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Sanitize a free-form name (a histogram's) into a metric-name chunk.
pub fn metric_chunk(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Every family the registry knows, at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// The families, in rendering order.
    pub families: Vec<Family>,
}

impl Snapshot {
    /// Start a family; its series follow through the returned handle.
    pub fn push(&mut self, name: impl Into<String>, kind: Kind) -> &mut Family {
        self.families.push(Family { name: name.into(), kind, series: Vec::new() });
        self.families.last_mut().expect("just pushed")
    }

    /// The family named `name`.
    pub fn get(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// The number of the first `name` series carrying every pair in
    /// `labels`.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.get(name)?.find(labels)?.number()
    }

    /// The sum over every series of counter or gauge `name` (0 when
    /// the family is absent).
    pub fn total(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |f| f.series.iter().filter_map(Series::number).sum())
    }

    /// The distribution of the first `name` series carrying every pair
    /// in `labels`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.get(name)?.find(labels)?.histogram()
    }

    /// Render as Prometheus text exposition (version 0.0.4).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for group in self.families.iter().flat_map(Family::groups) {
            let _ = writeln!(out, "# TYPE {} {}", group.name, group.kind.name());
            for s in &group.samples {
                out.push_str(&s.name);
                if !s.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in s.labels.iter().enumerate() {
                        let sep = if i > 0 { "," } else { "" };
                        let _ = write!(out, "{sep}{k}=\"{}\"", label_escape(v));
                    }
                    out.push('}');
                }
                let _ = writeln!(out, " {}", s.value);
            }
        }
        out
    }

    /// Render as the `/snapshot.json` document:
    /// `{"families":[{"name":..,"type":..,"series":[..]}]}`, where a
    /// series is `{"labels":{..},"value":N}` or, for a histogram,
    /// `{"labels":{..},"count":N,"sum":N,"max":N,"buckets":[[le,n],..]}`
    /// with each non-empty bucket's own count.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"families\":[");
        for (i, f) in self.families.iter().enumerate() {
            out.push_str(if i > 0 { ",{\"name\":" } else { "{\"name\":" });
            json::push_str(&mut out, &f.name);
            let _ = write!(out, ",\"type\":\"{}\",\"series\":[", f.kind.name());
            for (j, s) in f.series.iter().enumerate() {
                out.push_str(if j > 0 { ",{\"labels\":{" } else { "{\"labels\":{" });
                for (k, (key, v)) in s.labels.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    json::push_str(&mut out, key);
                    out.push(':');
                    json::push_str(&mut out, v);
                }
                match &s.value {
                    Reading::Number(v) => {
                        let _ = write!(out, "}},\"value\":{v}}}");
                    }
                    Reading::Histogram(h) => {
                        let _ = write!(
                            out,
                            "}},\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                            h.count, h.sum, h.max
                        );
                        for (k, (le, n)) in h.buckets().enumerate() {
                            let sep = if k > 0 { "," } else { "" };
                            let _ = write!(out, "{sep}[{le},{n}]");
                        }
                        out.push_str("]}");
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }

    /// Read a [`Snapshot::to_json`] document back. Truncated, non-object
    /// or wrongly typed input is an `Err` naming what was wrong.
    pub fn parse(body: &str) -> Result<Snapshot, String> {
        let v = Json::parse(body)?;
        let families = field(&v, "families")?.as_array().ok_or("families is not an array")?;
        let mut snap = Snapshot::default();
        for f in families {
            let name = field(f, "name")?.as_str().ok_or("family name is not a string")?;
            let kind = match field(f, "type")?.as_str() {
                Some("counter") => Kind::Counter,
                Some("gauge") => Kind::Gauge,
                Some("histogram") => Kind::Histogram,
                _ => return Err(format!("family {name} has no known type")),
            };
            let series = field(f, "series")?.as_array().ok_or("series is not an array")?;
            let family = snap.push(name, kind);
            for s in series {
                let labels = field(s, "labels")?
                    .as_object()
                    .ok_or("labels is not an object")?
                    .iter()
                    .map(|(k, v)| {
                        Ok((k.clone(), v.as_str().ok_or("label is not a string")?.to_owned()))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let value = if kind == Kind::Histogram {
                    let mut pairs = Vec::new();
                    for b in field(s, "buckets")?.as_array().ok_or("buckets is not an array")? {
                        match b.as_array() {
                            Some([le, n]) => pairs.push((uint(le)?, uint(n)?)),
                            _ => return Err("a bucket is not an [le, n] pair".into()),
                        }
                    }
                    let [count, sum, max] =
                        [field(s, "count")?, field(s, "sum")?, field(s, "max")?].map(uint);
                    Reading::Histogram(HistogramSnapshot::from_buckets(pairs, count?, sum?, max?))
                } else {
                    Reading::Number(field(s, "value")?.as_f64().ok_or("value is not a number")?)
                };
                family.series.push(Series { labels, value });
            }
        }
        Ok(snap)
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing {key:?}"))
}

/// A non-negative integral JSON number (saturating above `u64::MAX`).
fn uint(v: &Json) -> Result<u64, String> {
    match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
        _ => Err(format!("expected a non-negative integer, got {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn sample_snapshot() -> Snapshot {
        let h = Histogram::new();
        for v in [90u64, 128, 700, 700] {
            h.record(v);
        }
        let mut snap = Snapshot::default();
        snap.push("cfgtag_ready", Kind::Gauge).push(&[], 1.0);
        snap.push("cfgtag_bytes_in_total", Kind::Counter)
            .push(&[("sink", "engine")], 1000.0)
            .push(&[("sink", "a\"b\\c\nd")], 0.0);
        snap.push("cfgtag_util_pct", Kind::Gauge).push(&[("shard", "0")], 0.1 + 0.2);
        snap.push("cfgtag_lat_ns", Kind::Histogram)
            .push_histogram(&[("stage", "engine")], h.snapshot());
        snap
    }

    #[test]
    fn json_round_trips_every_series() {
        let snap = sample_snapshot();
        let back = Snapshot::parse(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.value("cfgtag_bytes_in_total", &[("sink", "engine")]), Some(1000.0));
        assert_eq!(back.total("cfgtag_bytes_in_total"), 1000.0);
        assert_eq!(back.total("missing"), 0.0);
        let h = back.histogram("cfgtag_lat_ns", &[("stage", "engine")]).unwrap();
        assert_eq!((h.count, h.sum, h.max), (4, 1618, 700));
        assert!(back.histogram("cfgtag_lat_ns", &[("stage", "parse")]).is_none());
    }

    #[test]
    fn prometheus_text_escapes_and_expands_histograms() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE cfgtag_bytes_in_total counter\n"), "{text}");
        assert!(text.contains("cfgtag_bytes_in_total{sink=\"engine\"} 1000\n"), "{text}");
        assert!(text.contains("cfgtag_bytes_in_total{sink=\"a\\\"b\\\\c\\nd\"} 0\n"), "{text}");
        assert!(text.contains("cfgtag_util_pct{shard=\"0\"} 0.30000000000000004\n"), "{text}");
        assert!(text.contains("cfgtag_lat_ns_bucket{stage=\"engine\",le=\"+Inf\"} 4\n"), "{text}");
        assert!(text.contains("cfgtag_lat_ns_sum{stage=\"engine\"} 1618\n"), "{text}");
        assert!(text.contains("# TYPE cfgtag_lat_ns_quantile gauge\n"), "{text}");
        assert!(text.contains("cfgtag_lat_ns_quantile{stage=\"engine\",quantile=\"1\"} 700\n"));
        assert_eq!(metric_chunk("route-latency.bytes"), "route_latency_bytes");
    }

    #[test]
    fn parse_refuses_bad_input_without_panicking() {
        let good = sample_snapshot().to_json();
        for cut in (0..good.len()).step_by(7) {
            assert!(Snapshot::parse(&good[..cut]).is_err(), "truncated at {cut} parsed");
        }
        for bad in [
            "",
            "[]",
            "7",
            "{}",
            "{\"families\":{}}",
            "{\"families\":[1]}",
            "{\"families\":[{\"name\":1,\"type\":\"gauge\",\"series\":[]}]}",
            "{\"families\":[{\"name\":\"x\",\"type\":\"summary\",\"series\":[]}]}",
            "{\"families\":[{\"name\":\"x\",\"type\":\"gauge\",\"series\":{}}]}",
            "{\"families\":[{\"name\":\"x\",\"type\":\"gauge\",\"series\":[{\"labels\":[]}]}]}",
            "{\"families\":[{\"name\":\"x\",\"type\":\"gauge\",\"series\":[{\"labels\":{\"a\":1},\"value\":1}]}]}",
            "{\"families\":[{\"name\":\"x\",\"type\":\"gauge\",\"series\":[{\"labels\":{},\"value\":\"1\"}]}]}",
            "{\"families\":[{\"name\":\"x\",\"type\":\"histogram\",\"series\":[{\"labels\":{},\"count\":1,\"sum\":1,\"max\":1,\"buckets\":[[1]]}]}]}",
            "{\"families\":[{\"name\":\"x\",\"type\":\"histogram\",\"series\":[{\"labels\":{},\"count\":-1,\"sum\":1,\"max\":1,\"buckets\":[]}]}]}",
        ] {
            assert!(Snapshot::parse(bad).is_err(), "{bad:?} parsed");
        }
        // A hostile but well-typed histogram still answers quantiles.
        let odd =
            "{\"families\":[{\"name\":\"x\",\"type\":\"histogram\",\"series\":[{\"labels\":{},\
                   \"count\":9,\"sum\":0,\"max\":3,\"buckets\":[[1e300,5],[3,1]]}]}]}";
        let snap = Snapshot::parse(odd).unwrap();
        let h = snap.histogram("x", &[]).unwrap();
        assert!(h.quantile(0.99) <= 3);
    }
}
