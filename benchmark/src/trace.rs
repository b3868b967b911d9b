//! Outside-in tracing: spans recorded around calls into the program's
//! public functions, kept in memory, written out when the run ends.
//!
//! Nothing here reaches into the program. The explorer layer is timed
//! through [`TracedExplorer`], a wrapper around the `dyn Explore` handed
//! to `run_windowed` / `run_proc_windowed`; the other layers are timed
//! by the workload code around the calls it makes (`run_pending`'s
//! `on_cell` callback, `protocol::request`, the daemon's artifacts).

use afex::core::queues::PendingTest;
use afex::core::{Evaluation, ExecutedTest, Explore};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The unit of work it belongs to: hunt, campaign or request id.
    pub id: u64,
}

/// In-memory span and counter store for one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is filled in by [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, id)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.epoch.elapsed();
    }

    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_default() += by;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Durations of every span with this name, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Writes every span as tab-separated `name start_ns end_ns parent
    /// id` rows, then the counters as `#count name value` rows.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tid")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.id
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(out, "#count\t{name}\t{value}")?;
        }
        out.flush()
    }
}

/// Times the explorer's two entry points and the execution between
/// them. The engine completes candidates in issue order, so a FIFO of
/// issue times pairs each completion with its issue.
pub struct TracedExplorer<'a> {
    inner: &'a mut dyn Explore,
    tracer: &'a mut Tracer,
    parent: usize,
    id: u64,
    /// `targets.execute` for in-process targets, `process.execute` for
    /// live binaries.
    execute: &'static str,
    issued: VecDeque<Instant>,
}

impl<'a> TracedExplorer<'a> {
    pub fn new(
        inner: &'a mut dyn Explore,
        tracer: &'a mut Tracer,
        parent: usize,
        id: u64,
        execute: &'static str,
    ) -> Self {
        TracedExplorer {
            inner,
            tracer,
            parent,
            id,
            execute,
            issued: VecDeque::new(),
        }
    }
}

impl Explore for TracedExplorer<'_> {
    fn next_candidate(&mut self) -> Option<PendingTest> {
        let start = Instant::now();
        let test = self.inner.next_candidate();
        let end = Instant::now();
        self.tracer
            .record("explore.generate", start, end, Some(self.parent), self.id);
        if test.is_some() {
            self.tracer.count("explore.candidates", 1);
            self.issued.push_back(end);
        }
        test
    }

    fn complete(&mut self, test: PendingTest, evaluation: Evaluation) -> ExecutedTest {
        let start = Instant::now();
        if let Some(issued) = self.issued.pop_front() {
            self.tracer
                .record(self.execute, issued, start, Some(self.parent), self.id);
        }
        let done = self.inner.complete(test, evaluation);
        self.tracer.record(
            "explore.complete",
            start,
            Instant::now(),
            Some(self.parent),
            self.id,
        );
        done
    }
}
