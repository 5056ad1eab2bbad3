//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). Spans stay in memory while the run is measured
//! and are written out once at the end. A layer's self time is its
//! span's duration minus the part covered by its child spans.
//!
//! When the tracer is off, [`Tracer::enter`] and [`Tracer::exit`] record
//! nothing, so the untraced runs that give the end-to-end metrics pay
//! only a branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    /// Index of the repeat the span belongs to.
    repeat: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder. Spans nest strictly: `exit` closes the innermost
/// open span.
pub struct Tracer {
    on: bool,
    origin: Instant,
    repeat: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            repeat: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off between repeats.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with spans open");
        self.on = on;
    }

    /// Tags the spans that follow with a repeat index.
    pub fn set_repeat(&mut self, repeat: u32) {
        self.repeat = repeat;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            repeat: self.repeat,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Self time of every span: its duration minus its direct
    /// children's, in ns.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Self time per span name, summed over the spans of the given
    /// repeats, in ns.
    pub fn self_ns_by_name(&self, repeats: &[u32]) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if repeats.contains(&s.repeat) {
                *out.entry(s.name).or_insert(0) += own;
            }
        }
        out
    }

    /// Writes every recorded span as one JSON object per line:
    /// `{"id","parent","repeat","name","start_ns","end_ns","self_ns"}`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"repeat\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.repeat, s.name, s.start_ns, s.end_ns, own
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<(&'static str, Option<usize>, u64, u64)>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans
            .into_iter()
            .map(|(name, parent, start_ns, end_ns)| Span {
                name,
                repeat: 0,
                parent,
                start_ns,
                end_ns,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) holds a [10,40) and b [50,90); b holds c [60,70).
        let t = fixed(vec![
            ("root", None, 0, 100),
            ("a", Some(0), 10, 40),
            ("b", Some(0), 50, 90),
            ("c", Some(2), 60, 70),
        ]);
        let s = t.self_ns_by_name(&[0]);
        assert_eq!(s["root"], 30);
        assert_eq!(s["a"], 30);
        assert_eq!(s["b"], 30);
        assert_eq!(s["c"], 10);
        assert_eq!(s.values().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn nesting_follows_enter_and_exit() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.enter("inner");
        t.exit();
        t.enter("inner");
        t.exit();
        t.exit();
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x");
        t.exit();
        assert!(t.spans.is_empty());
    }
}
