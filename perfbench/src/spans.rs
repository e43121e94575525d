//! In-memory span recording for the traced run. A span is opened and
//! closed by the benchmark around one call into a layer's public
//! function; nothing inside the program is instrumented.

use pgasm_telemetry::Json;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `gst.build`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span (`None` for a root).
    pub parent: Option<usize>,
    /// Identifier shared by every span of one traced job.
    pub run: u64,
    /// Thread the span ran on (0 = the job's main thread).
    pub lane: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Records spans of one traced job. Threads the job fans out to get a
/// [`Recorder::fork`] sharing the epoch and run id; their spans are
/// folded back with [`Recorder::absorb`].
pub struct Recorder {
    run: u64,
    lane: u32,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// On a fork: the span, in the recorder it was forked from, that
    /// this recorder's top-level spans nest in once absorbed.
    base: Option<usize>,
}

impl Recorder {
    /// Empty recorder for job `run`, epoch now.
    pub fn new(run: u64) -> Recorder {
        Recorder { run, lane: 0, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), base: None }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, run: self.run, lane: self.lane });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// A recorder for thread `lane` whose top-level spans nest in the
    /// innermost span open here.
    pub fn fork(&self, lane: u32) -> Recorder {
        Recorder {
            run: self.run,
            lane,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
            base: self.open.last().copied(),
        }
    }

    /// Fold a forked recorder's closed spans into this one.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(other.open.is_empty(), "absorb a recorder with no open spans");
        let offset = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + offset).or(other.base);
            self.spans.push(s);
        }
    }

    /// Recorded spans, in opening order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).sum()
    }

    /// Share of span `root`'s wall time covered by leaf spans (calls
    /// with no recorded span inside them) nested under it, counting
    /// time covered on several threads at once only once.
    pub fn coverage(&self, root: usize) -> f64 {
        let has_child: Vec<bool> = {
            let mut v = vec![false; self.spans.len()];
            for s in &self.spans {
                if let Some(p) = s.parent {
                    v[p] = true;
                }
            }
            v
        };
        let under_root = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) if p == root => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut leaves: Vec<(u64, u64)> = (0..self.spans.len())
            .filter(|&i| i != root && !has_child[i] && under_root(i))
            .map(|i| (self.spans[i].start_ns, self.spans[i].end_ns))
            .collect();
        leaves.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in leaves {
            cur = match cur {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        let wall = self.spans[root].end_ns.saturating_sub(self.spans[root].start_ns);
        if wall == 0 {
            0.0
        } else {
            covered as f64 / wall as f64
        }
    }

    /// Spans as a JSON array (name, start/end in ns, parent, run, lane).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("run", Json::Str(format!("{:016x}", s.run))),
                        ("lane", Json::Num(s.lane as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_and_parents() {
        let mut r = Recorder::new(9);
        let root = r.begin("job");
        r.span("a", |r| r.span("a.inner", |_| busy(1)));
        r.span("b", |_| ());
        r.end(root);
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert!(s.iter().all(|s| s.run == 9 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn forked_spans_nest_under_the_open_span() {
        let mut r = Recorder::new(1);
        let root = r.begin("job");
        let asm = r.begin("assemble");
        let mut f = r.fork(1);
        f.span("cluster", |f| f.span("overlap", |_| ()));
        r.absorb(f);
        r.end(asm);
        r.end(root);
        let s = r.spans();
        let cluster = s.iter().position(|s| s.name == "cluster").unwrap();
        let overlap = s.iter().position(|s| s.name == "overlap").unwrap();
        assert_eq!(s[cluster].parent, Some(asm));
        assert_eq!(s[cluster].lane, 1);
        assert_eq!(s[overlap].parent, Some(cluster));
    }

    #[test]
    fn coverage_counts_overlapping_leaves_once() {
        let mut r = Recorder::new(2);
        let root = r.begin("job");
        let mut a = r.fork(1);
        let mut b = r.fork(2);
        let (ia, ib) = (a.begin("x"), b.begin("y"));
        busy(20);
        a.end(ia);
        b.end(ib);
        r.absorb(a);
        r.absorb(b);
        busy(20);
        r.end(root);
        let c = r.coverage(root);
        assert!(c > 0.3 && c < 0.7, "two parallel 20 ms leaves over a ~40 ms root: {c}");
    }

    #[test]
    fn fully_covered_root_is_one() {
        let mut r = Recorder::new(3);
        let root = r.begin("job");
        r.span("only", |_| busy(5));
        r.end(root);
        assert!(r.coverage(root) > 0.9);
    }
}
