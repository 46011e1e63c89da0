//! Hardware counter registry.
//!
//! Collie's central idea is that commodity RDMA subsystems expose two kinds
//! of counters and that both can serve as opaque search signals:
//!
//! * **performance counters** — throughput-style values every RNIC exports
//!   (bytes sent per second, packets per second, pause-frame duration);
//!   the search *minimises* these, and
//! * **diagnostic counters** — vendor debugging counters that map to
//!   internal "unexpected events" (PCIe back-pressure, internal cache miss);
//!   the search *maximises* these.
//!
//! Every hardware model in this workspace registers its counters here so the
//! search layer can snapshot them uniformly without knowing what they mean —
//! exactly how the paper treats the vendor counters.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Whether a counter is a performance counter (minimised by the search) or a
/// diagnostic counter (maximised by the search).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CounterKind {
    /// Throughput-style counters exported by every commodity RNIC.
    Performance,
    /// Vendor debugging counters mapped to internal unexpected events.
    Diagnostic,
}

impl fmt::Display for CounterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterKind::Performance => write!(f, "perf"),
            CounterKind::Diagnostic => write!(f, "diag"),
        }
    }
}

#[derive(Debug)]
struct CounterCell {
    name: Arc<str>,
    kind: CounterKind,
    value: f64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    cells: Vec<CounterCell>,
    by_name: BTreeMap<String, usize>,
    /// Cell indices in sorted-name order, maintained on registration, so a
    /// snapshot is one pre-sized pass instead of a per-call sort.
    sorted: Vec<usize>,
}

/// A registry of named counters shared by all components of one simulated
/// subsystem.
///
/// Cloning the registry clones the *handle*; all clones observe the same
/// underlying counters (mirroring how the vendor monitor daemon and the
/// workload generator both read the same hardware registers).
#[derive(Debug, Clone, Default)]
pub struct CounterRegistry {
    inner: Arc<RwLock<RegistryInner>>,
}

/// A cheap handle to one registered counter.
#[derive(Debug, Clone)]
pub struct CounterHandle {
    registry: CounterRegistry,
    index: usize,
}

/// An immutable snapshot of every counter at one instant.
///
/// Stored as a name-sorted vector whose names are shared (`Arc<str>`) with
/// the registry cells: taking or cloning a snapshot costs one vector
/// allocation and a refcount bump per counter, not a string allocation per
/// counter — snapshots ride along on every `Measurement`, so this is on the
/// evaluator's hot path. The serialised form is unchanged: it round-trips
/// through the same sorted name → `(kind, value)` map the previous
/// `BTreeMap` representation produced, byte for byte.
#[derive(Debug, Clone, Default)]
pub struct CounterSnapshot {
    values: Vec<(Arc<str>, CounterKind, f64)>,
}

impl PartialEq for CounterSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && a.2 == b.2)
    }
}

/// The serialised shape of [`CounterSnapshot`] — identical to its previous
/// in-memory representation, so existing golden fixtures parse and replay
/// byte-for-byte.
#[derive(Serialize, Deserialize)]
struct CounterSnapshotWire {
    values: BTreeMap<String, (CounterKind, f64)>,
}

impl Serialize for CounterSnapshot {
    fn to_value(&self) -> serde::Value {
        CounterSnapshotWire {
            values: self
                .values
                .iter()
                .map(|(n, k, v)| (n.to_string(), (*k, *v)))
                .collect(),
        }
        .to_value()
    }
}

impl Deserialize for CounterSnapshot {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let wire = CounterSnapshotWire::from_value(value)?;
        Ok(CounterSnapshot {
            values: wire
                .values
                .into_iter()
                .map(|(n, (k, v))| (Arc::from(n.as_str()), k, v))
                .collect(),
        })
    }
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a counter, returning a handle. Registering a name twice
    /// returns a handle to the existing counter (components may be rebuilt
    /// between experiments while the registry persists).
    pub fn register(&self, name: &str, kind: CounterKind) -> CounterHandle {
        let mut inner = self.inner.write();
        if let Some(&index) = inner.by_name.get(name) {
            return CounterHandle {
                registry: self.clone(),
                index,
            };
        }
        let index = inner.cells.len();
        inner.cells.push(CounterCell {
            name: Arc::from(name),
            kind,
            value: 0.0,
        });
        inner.by_name.insert(name.to_string(), index);
        inner.sorted = inner.by_name.values().copied().collect();
        CounterHandle {
            registry: self.clone(),
            index,
        }
    }

    /// Look up an already-registered counter by name.
    pub fn get(&self, name: &str) -> Option<CounterHandle> {
        let inner = self.inner.read();
        inner.by_name.get(name).map(|&index| CounterHandle {
            registry: self.clone(),
            index,
        })
    }

    /// Names of all registered counters of a given kind, in registration-
    /// independent (sorted) order.
    pub fn names(&self, kind: CounterKind) -> Vec<String> {
        let inner = self.inner.read();
        let mut names: Vec<String> = inner
            .cells
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.name.to_string())
            .collect();
        names.sort();
        names
    }

    /// Reset every counter to zero (done between experiments, like clearing
    /// hardware counters before a run).
    pub fn reset(&self) {
        let mut inner = self.inner.write();
        for cell in &mut inner.cells {
            cell.value = 0.0;
        }
    }

    /// Snapshot every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        let inner = self.inner.read();
        let mut values = Vec::with_capacity(inner.sorted.len());
        for &index in &inner.sorted {
            let cell = &inner.cells[index];
            values.push((cell.name.clone(), cell.kind, cell.value));
        }
        CounterSnapshot { values }
    }

    /// Total number of registered counters.
    pub fn len(&self) -> usize {
        self.inner.read().cells.len()
    }

    /// True if no counters are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A write guard over the whole registry: applies several counter updates
/// under one lock acquisition. The per-experiment reset-and-publish sequence
/// of a subsystem touches every registered counter; taking and releasing
/// the registry lock once per update dominated that hot loop, so the
/// evaluator batches the sequence through one of these instead. Updates
/// through the guard are value-for-value identical to the equivalent
/// [`CounterHandle`] calls.
pub struct CounterWriter<'a> {
    registry: &'a CounterRegistry,
    inner: parking_lot::RwLockWriteGuard<'a, RegistryInner>,
}

impl CounterWriter<'_> {
    fn cell(&mut self, handle: &CounterHandle) -> &mut CounterCell {
        debug_assert!(
            Arc::ptr_eq(&self.registry.inner, &handle.registry.inner),
            "counter handle used with a writer of a different registry"
        );
        &mut self.inner.cells[handle.index]
    }

    /// Batched [`CounterHandle::set`]: overwrite, clamped at zero.
    pub fn set(&mut self, handle: &CounterHandle, value: f64) {
        self.cell(handle).value = value.max(0.0);
    }

    /// Batched [`CounterHandle::add`]: accumulate, clamped at zero.
    pub fn add(&mut self, handle: &CounterHandle, delta: f64) {
        let cell = self.cell(handle);
        cell.value = (cell.value + delta).max(0.0);
    }
}

impl CounterRegistry {
    /// Take the registry write lock once and return a batched writer for
    /// applying a sequence of updates through handles of this registry.
    pub fn writer(&self) -> CounterWriter<'_> {
        CounterWriter {
            registry: self,
            inner: self.inner.write(),
        }
    }
}

impl CounterHandle {
    /// Add `delta` to the counter (negative deltas are allowed but the value
    /// is clamped at zero, as hardware counters never read negative).
    pub fn add(&self, delta: f64) {
        let mut inner = self.registry.inner.write();
        let cell = &mut inner.cells[self.index];
        cell.value = (cell.value + delta).max(0.0);
    }

    /// Increment by one.
    pub fn incr(&self) {
        self.add(1.0);
    }

    /// Overwrite the counter value (used by gauge-style counters such as
    /// "bytes per second over the last interval"). Clamped at zero.
    pub fn set(&self, value: f64) {
        let mut inner = self.registry.inner.write();
        inner.cells[self.index].value = value.max(0.0);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.registry.inner.read().cells[self.index].value
    }

    /// Counter name.
    pub fn name(&self) -> String {
        self.registry.inner.read().cells[self.index]
            .name
            .to_string()
    }

    /// Counter kind.
    pub fn kind(&self) -> CounterKind {
        self.registry.inner.read().cells[self.index].kind
    }
}

impl CounterSnapshot {
    fn position(&self, name: &str) -> Option<usize> {
        self.values
            .binary_search_by(|(n, _, _)| (**n).cmp(name))
            .ok()
    }

    /// Value of a named counter, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.position(name).map(|i| self.values[i].2)
    }

    /// Kind of a named counter, if present.
    pub fn kind(&self, name: &str) -> Option<CounterKind> {
        self.position(name).map(|i| self.values[i].1)
    }

    /// Iterate over `(name, kind, value)` triples in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, CounterKind, f64)> {
        self.values.iter().map(|(n, k, v)| (&**n, *k, *v))
    }

    /// All names of a given kind.
    pub fn names(&self, kind: CounterKind) -> Vec<&str> {
        self.iter()
            .filter(|(_, k, _)| *k == kind)
            .map(|(n, _, _)| n)
            .collect()
    }

    /// Number of counters in the snapshot.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Build a snapshot directly from `(name, kind, value)` triples
    /// (used by [`CounterSnapshot::average`] and by tests). Names are
    /// deduplicated and sorted exactly as a map insert sequence would be:
    /// the last entry for a repeated name wins.
    pub fn from_triples<I: IntoIterator<Item = (String, CounterKind, f64)>>(iter: I) -> Self {
        let map: BTreeMap<String, (CounterKind, f64)> =
            iter.into_iter().map(|(n, k, v)| (n, (k, v))).collect();
        CounterSnapshot {
            values: map
                .into_iter()
                .map(|(n, (k, v))| (Arc::from(n.as_str()), k, v))
                .collect(),
        }
    }

    /// This snapshot with `extra` entries merged in: the same snapshot
    /// [`CounterSnapshot::from_triples`] builds from this snapshot's
    /// triples followed by `extra`. The result is sorted by name, and an
    /// entry whose name is already present replaces that entry's kind and
    /// value. The names already here keep their shared `Arc<str>`; only a
    /// new name allocates. This is how the fabric relay extends the
    /// culprit's snapshot with its gauges on every fabric measurement.
    pub fn merged<'n, I: IntoIterator<Item = (&'n str, CounterKind, f64)>>(
        &self,
        extra: I,
    ) -> Self {
        let extra = extra.into_iter();
        let mut values = Vec::with_capacity(self.values.len() + extra.size_hint().0);
        values.extend(self.values.iter().cloned());
        for (name, kind, value) in extra {
            match values.binary_search_by(|(n, _, _)| (**n).cmp(name)) {
                Ok(i) => {
                    values[i].1 = kind;
                    values[i].2 = value;
                }
                Err(i) => values.insert(i, (Arc::from(name), kind, value)),
            }
        }
        CounterSnapshot { values }
    }

    /// Pointwise average of several snapshots sharing the same counter set.
    /// Counters missing from some snapshots average only over the snapshots
    /// that contain them. Returns an empty snapshot for an empty input.
    pub fn average(snapshots: &[CounterSnapshot]) -> CounterSnapshot {
        let mut sums: BTreeMap<String, (CounterKind, f64, u32)> = BTreeMap::new();
        for snap in snapshots {
            for (name, kind, value) in snap.iter() {
                let entry = sums.entry(name.to_string()).or_insert((kind, 0.0, 0));
                entry.1 += value;
                entry.2 += 1;
            }
        }
        CounterSnapshot::from_triples(
            sums.into_iter()
                .map(|(n, (k, sum, cnt))| (n, k, sum / cnt as f64)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_update() {
        let reg = CounterRegistry::new();
        let c = reg.register("rx_bytes", CounterKind::Performance);
        c.add(100.0);
        c.add(50.0);
        assert_eq!(c.value(), 150.0);
        assert_eq!(c.name(), "rx_bytes");
        assert_eq!(c.kind(), CounterKind::Performance);
    }

    #[test]
    fn duplicate_registration_shares_storage() {
        let reg = CounterRegistry::new();
        let a = reg.register("cache_miss", CounterKind::Diagnostic);
        let b = reg.register("cache_miss", CounterKind::Diagnostic);
        a.incr();
        b.incr();
        assert_eq!(a.value(), 2.0);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn values_never_go_negative() {
        let reg = CounterRegistry::new();
        let c = reg.register("x", CounterKind::Diagnostic);
        c.add(-5.0);
        assert_eq!(c.value(), 0.0);
        c.set(-1.0);
        assert_eq!(c.value(), 0.0);
    }

    #[test]
    fn snapshot_is_immutable_copy() {
        let reg = CounterRegistry::new();
        let c = reg.register("pps", CounterKind::Performance);
        c.set(10.0);
        let snap = reg.snapshot();
        c.set(99.0);
        assert_eq!(snap.value("pps"), Some(10.0));
        assert_eq!(reg.snapshot().value("pps"), Some(99.0));
    }

    #[test]
    fn names_filtered_by_kind() {
        let reg = CounterRegistry::new();
        reg.register("b_diag", CounterKind::Diagnostic);
        reg.register("a_perf", CounterKind::Performance);
        reg.register("a_diag", CounterKind::Diagnostic);
        assert_eq!(reg.names(CounterKind::Diagnostic), vec!["a_diag", "b_diag"]);
        assert_eq!(reg.names(CounterKind::Performance), vec!["a_perf"]);
    }

    #[test]
    fn reset_zeroes_everything() {
        let reg = CounterRegistry::new();
        let c = reg.register("x", CounterKind::Performance);
        c.set(42.0);
        reg.reset();
        assert_eq!(c.value(), 0.0);
    }

    #[test]
    fn clones_share_state() {
        let reg = CounterRegistry::new();
        let reg2 = reg.clone();
        let c = reg.register("shared", CounterKind::Diagnostic);
        c.incr();
        assert_eq!(reg2.snapshot().value("shared"), Some(1.0));
    }

    #[test]
    fn snapshot_average() {
        let a = CounterSnapshot::from_triples([("x".to_string(), CounterKind::Performance, 2.0)]);
        let b = CounterSnapshot::from_triples([("x".to_string(), CounterKind::Performance, 4.0)]);
        let avg = CounterSnapshot::average(&[a, b]);
        assert_eq!(avg.value("x"), Some(3.0));
        assert!(CounterSnapshot::average(&[]).is_empty());
    }

    #[test]
    fn batched_writer_matches_per_handle_updates() {
        let reg = CounterRegistry::new();
        let gauge = reg.register("gauge", CounterKind::Performance);
        let acc = reg.register("acc", CounterKind::Diagnostic);
        {
            let mut w = reg.writer();
            w.set(&gauge, 5.0);
            w.add(&acc, 2.0);
            w.add(&acc, -10.0); // clamped at zero, like CounterHandle::add
            w.set(&gauge, -1.0); // clamped at zero, like CounterHandle::set
        }
        assert_eq!(gauge.value(), 0.0);
        assert_eq!(acc.value(), 0.0);
        let mut w = reg.writer();
        w.add(&acc, 3.5);
        drop(w);
        assert_eq!(acc.value(), 3.5);
    }

    #[test]
    fn merged_equals_from_triples_over_the_concatenation() {
        // A small alphabet makes the extras collide with base names (and
        // with each other) often; kinds are drawn independently, so a
        // collision frequently flips the kind too.
        const NAMES: [&str; 6] = ["a", "b/x", "b/y", "c", "f/z", "zz"];
        const KINDS: [CounterKind; 2] = [CounterKind::Performance, CounterKind::Diagnostic];
        let mut rng = crate::rng::SimRng::new(20260730);
        let draw = |rng: &mut crate::rng::SimRng, n: usize| -> Vec<(String, CounterKind, f64)> {
            (0..n)
                .map(|_| {
                    (
                        rng.choose(&NAMES).to_string(),
                        *rng.choose(&KINDS),
                        rng.gen_f64() * 10.0,
                    )
                })
                .collect()
        };
        for case in 0..2000 {
            let base_triples = {
                let n = rng.gen_index(NAMES.len() + 1);
                draw(&mut rng, n)
            };
            let extra = {
                let n = rng.gen_index(NAMES.len() + 1);
                draw(&mut rng, n)
            };
            let base = CounterSnapshot::from_triples(base_triples.clone());
            let merged = base.merged(extra.iter().map(|(n, k, v)| (n.as_str(), *k, *v)));
            let expected = CounterSnapshot::from_triples(base_triples.into_iter().chain(extra));
            assert_eq!(merged, expected, "case {case}");
            assert_eq!(merged.to_value(), expected.to_value(), "case {case}");
        }
    }

    #[test]
    fn get_finds_existing_only() {
        let reg = CounterRegistry::new();
        assert!(reg.get("missing").is_none());
        reg.register("present", CounterKind::Performance);
        assert!(reg.get("present").is_some());
    }
}
