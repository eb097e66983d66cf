//! In-memory spans recorded around the benchmark's own calls into each
//! layer, with self time (a span's duration minus the union of its
//! children) and a one-shot writer used at exit.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Spans of one request share `request`; `parent` is
/// the id of the span that caused this one (0 for a root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// The request (or federated session) this span belongs to.
    pub request: u64,
    /// Layer-qualified name, e.g. `client.encode`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span: its id is fixed at open so children can name it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The span's id, for children to use as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A per-thread span recorder. Recorders share an epoch and draw ids
/// from disjoint ranges, so their spans merge without renumbering.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A recorder whose span ids start above `lane << 40`.
    pub fn new(epoch: Instant, lane: u64) -> Tracer {
        Tracer {
            epoch,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// Turns recording on or off; a disabled recorder keeps nothing.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since the shared epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, request: u64, parent: u64) -> Open {
        let start_ns = self.now_ns();
        self.open_at(name, request, parent, start_ns)
    }

    /// Opens a span that started at `start_ns`.
    pub fn open_at(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u64,
        start_ns: u64,
    ) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            request,
            name,
            start_ns,
        }
    }

    /// Closes `open` now.
    pub fn close(&mut self, open: Open) {
        let end_ns = self.now_ns();
        self.close_at(open, end_ns);
    }

    /// Closes `open` at `end_ns`.
    pub fn close_at(&mut self, open: Open, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Records a finished span in one call.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let open = self.open_at(name, request, parent, start_ns);
        let id = open.id;
        self.close_at(open, end_ns);
        id
    }

    /// Hands over the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Total length of the union of `intervals`, each clipped to
/// `[lo, hi)`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-name totals: how many spans, their summed duration and summed
/// self time (duration minus the union of their children), in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns() - covered.min(s.dur_ns());
    }
    out
}

/// Renders spans as JSON lines, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips_to_the_parent() {
        let mut v = vec![(10, 20), (15, 30), (40, 50), (45, 46)];
        assert_eq!(union_len(&mut v, 0, 100), 30);
        // Clipped to [12, 48): [12,30) + [40,48) = 18 + 8.
        let mut v = vec![(10, 20), (15, 30), (40, 50)];
        assert_eq!(union_len(&mut v, 12, 48), 26);
        let mut none: Vec<(u64, u64)> = Vec::new();
        assert_eq!(union_len(&mut none, 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap, so
        // they cover 50 ns, not 60; a child running past the parent's end
        // counts only inside it.
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),
            span(4, 0, "root", 200, 250),
            span(5, 4, "a", 240, 300),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["root"],
            LayerTime {
                count: 2,
                total_ns: 150,
                self_ns: 50 + 40
            }
        );
        assert_eq!(t["a"].self_ns, 30 + 60);
        assert_eq!(t["b"].self_ns, 30);
    }

    #[test]
    fn nested_children_only_cover_their_own_parent() {
        // Grandchildren reduce the child's self time, not the root's.
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "child", 0, 50),
            span(3, 2, "grandchild", 0, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(t["child"].self_ns, 0);
        assert_eq!(t["grandchild"].self_ns, 50);
    }

    #[test]
    fn tracer_ids_are_unique_across_lanes_and_children_name_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 1);
        let mut b = Tracer::new(epoch, 2);
        let mut off = Tracer::new(epoch, 3);
        off.set_enabled(false);
        off.record("dropped", 1, 0, 0, 1);
        assert!(off.into_spans().is_empty());
        let root = a.open("root", 7, 0);
        let child = a.record("child", 7, root.id(), a.now_ns(), a.now_ns());
        a.close(root);
        let other = b.record("root", 8, 0, 0, 1);
        let spans = a.into_spans();
        assert_ne!(child, other);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }
}
