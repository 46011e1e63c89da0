//! Hardware counter schema and snapshots.
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
//! Every hardware model in this workspace declares its counter set once,
//! as a [`CounterSchema`], and publishes [`CounterSnapshot`]s over it: the
//! schema handle plus one `f64` per counter. The search reads any model's
//! snapshots uniformly without knowing what the counters mean — exactly
//! how the paper treats the vendor counters.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// The fixed counter set of one model: every counter's name and kind,
/// declared once.
///
/// Counters occupy *slots* in declaration order, so a model publishes
/// into a plain array by position; the schema also keeps the slots in
/// sorted-name order, which is the order every snapshot iterates and
/// serialises in. A schema is immutable and shared by `Arc` with every
/// snapshot taken over it.
#[derive(Default)]
pub struct CounterSchema {
    names: Vec<Box<str>>,
    kinds: Vec<CounterKind>,
    /// Slots in sorted-name order.
    sorted: Vec<usize>,
    /// The first [`CounterSnapshot::merged`] plan built over this schema,
    /// so a model that extends every snapshot with the same counters
    /// builds the extended schema once.
    merge: OnceLock<MergePlan>,
}

impl CounterSchema {
    /// A schema over `counters`, in declaration order. A repeated name
    /// keeps the slot of its first declaration and the kind of its last.
    pub fn new<'n>(counters: impl IntoIterator<Item = (&'n str, CounterKind)>) -> Self {
        Self::build(counters).0
    }

    /// The schema plus, for each declared counter, the slot it landed in.
    fn build<'n>(counters: impl IntoIterator<Item = (&'n str, CounterKind)>) -> (Self, Vec<usize>) {
        let mut slot_of: BTreeMap<&str, usize> = BTreeMap::new();
        let mut names: Vec<Box<str>> = Vec::new();
        let mut kinds = Vec::new();
        let mut slots = Vec::new();
        for (name, kind) in counters {
            let slot = *slot_of.entry(name).or_insert_with(|| {
                names.push(Box::from(name));
                kinds.push(kind);
                names.len() - 1
            });
            kinds[slot] = kind;
            slots.push(slot);
        }
        let schema = CounterSchema {
            sorted: slot_of.into_values().collect(),
            names,
            kinds,
            merge: OnceLock::new(),
        };
        (schema, slots)
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the schema declares no counter.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The slot of a named counter, if declared.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.sorted
            .binary_search_by(|&slot| (*self.names[slot]).cmp(name))
            .ok()
            .map(|i| self.sorted[i])
    }

    /// `(name, kind)` of every counter in sorted-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, CounterKind)> {
        self.sorted
            .iter()
            .map(|&slot| (&*self.names[slot], self.kinds[slot]))
    }

    /// Names of every counter of `kind`, in sorted order.
    pub fn names(&self, kind: CounterKind) -> Vec<&str> {
        self.iter()
            .filter(|(_, k)| *k == kind)
            .map(|(n, _)| n)
            .collect()
    }

    /// `(name, kind)` in declaration (slot) order.
    fn declared(&self) -> impl Iterator<Item = (&str, CounterKind)> {
        self.names
            .iter()
            .map(|n| &**n)
            .zip(self.kinds.iter().copied())
    }
}

impl fmt::Debug for CounterSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// How [`CounterSnapshot::merged`] extends one schema by a given list of
/// `(name, kind)` pairs: the extended schema keeps the base slots as its
/// prefix, and each extra entry writes to `extra_slots[i]`.
struct MergePlan {
    extra: Vec<(Box<str>, CounterKind)>,
    schema: Arc<CounterSchema>,
    extra_slots: Vec<usize>,
}

impl MergePlan {
    fn new(base: &CounterSchema, extra: &[(&str, CounterKind, f64)]) -> Self {
        let extra_pairs = extra.iter().map(|&(name, kind, _)| (name, kind));
        let (schema, slots) = CounterSchema::build(base.declared().chain(extra_pairs));
        MergePlan {
            extra: extra
                .iter()
                .map(|&(name, kind, _)| (Box::from(name), kind))
                .collect(),
            schema: Arc::new(schema),
            extra_slots: slots[base.len()..].to_vec(),
        }
    }

    /// True if this plan was built for exactly these extra names and kinds.
    fn extends_by(&self, extra: &[(&str, CounterKind, f64)]) -> bool {
        self.extra.len() == extra.len()
            && self
                .extra
                .iter()
                .zip(extra)
                .all(|((name, kind), (n, k, _))| **name == **n && kind == k)
    }
}

/// Every counter of one schema at one instant: the schema handle plus one
/// value per slot.
///
/// Taking or cloning a snapshot costs one refcount bump and one `f64`
/// vector, not a name per counter — snapshots ride along on every
/// `Measurement`, so this is on the evaluator's hot path. Reads iterate
/// in sorted-name order, and two snapshots are equal when they hold the
/// same `(name, kind, value)` triples. The serialised form is a sorted
/// name → `(kind, value)` map, byte for byte what the golden fixtures
/// hold.
#[derive(Clone, Default)]
pub struct CounterSnapshot {
    schema: Arc<CounterSchema>,
    values: Vec<f64>,
}

impl PartialEq for CounterSnapshot {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.schema, &other.schema) {
            return self.values == other.values;
        }
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for CounterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CounterSnapshot")
            .field("values", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// The serialised shape of [`CounterSnapshot`].
#[derive(Serialize, Deserialize)]
struct CounterSnapshotWire {
    values: BTreeMap<String, (CounterKind, f64)>,
}

impl Serialize for CounterSnapshot {
    fn to_value(&self) -> serde::Value {
        CounterSnapshotWire {
            values: self
                .iter()
                .map(|(n, k, v)| (n.to_string(), (k, v)))
                .collect(),
        }
        .to_value()
    }
}

impl Deserialize for CounterSnapshot {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let wire = CounterSnapshotWire::from_value(value)?;
        Ok(CounterSnapshot::from_triples(
            wire.values.into_iter().map(|(n, (k, v))| (n, k, v)),
        ))
    }
}

impl CounterSnapshot {
    /// Every counter of `schema` at zero: the live state a model resets
    /// and publishes into through [`CounterSnapshot::values_mut`].
    pub fn zeroed(schema: Arc<CounterSchema>) -> Self {
        let values = vec![0.0; schema.len()];
        CounterSnapshot { schema, values }
    }

    /// The schema this snapshot is taken over.
    pub fn schema(&self) -> &CounterSchema {
        &self.schema
    }

    /// The values in slot (declaration) order.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Value of a named counter, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.schema.index_of(name).map(|slot| self.values[slot])
    }

    /// Kind of a named counter, if present.
    pub fn kind(&self, name: &str) -> Option<CounterKind> {
        self.schema
            .index_of(name)
            .map(|slot| self.schema.kinds[slot])
    }

    /// Iterate over `(name, kind, value)` triples in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, CounterKind, f64)> {
        let schema = &*self.schema;
        schema
            .sorted
            .iter()
            .map(|&slot| (&*schema.names[slot], schema.kinds[slot], self.values[slot]))
    }

    /// All names of a given kind.
    pub fn names(&self, kind: CounterKind) -> Vec<&str> {
        self.schema.names(kind)
    }

    /// Number of counters in the snapshot.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Build a snapshot directly from `(name, kind, value)` triples, over
    /// a schema of its own. Names are deduplicated and sorted exactly as a
    /// map insert sequence would be: the last entry for a repeated name
    /// wins.
    pub fn from_triples<I: IntoIterator<Item = (String, CounterKind, f64)>>(iter: I) -> Self {
        let map: BTreeMap<String, (CounterKind, f64)> =
            iter.into_iter().map(|(n, k, v)| (n, (k, v))).collect();
        let schema = CounterSchema::new(map.iter().map(|(n, (k, _))| (n.as_str(), *k)));
        CounterSnapshot {
            schema: Arc::new(schema),
            values: map.values().map(|(_, v)| *v).collect(),
        }
    }

    /// This snapshot with `extra` entries merged in: the same snapshot
    /// [`CounterSnapshot::from_triples`] builds from this snapshot's
    /// triples followed by `extra`. An entry whose name is already present
    /// replaces that entry's kind and value.
    ///
    /// The extended schema is built once per schema and per list of extra
    /// names and kinds (the first list merged over a schema is cached in
    /// it); after that a merge only copies values. This is how the fabric
    /// relay extends the culprit's snapshot with its gauges on every
    /// fabric measurement.
    pub fn merged(&self, extra: &[(&str, CounterKind, f64)]) -> Self {
        let cached = self
            .schema
            .merge
            .get_or_init(|| MergePlan::new(&self.schema, extra));
        let built;
        let plan = if cached.extends_by(extra) {
            cached
        } else {
            built = MergePlan::new(&self.schema, extra);
            &built
        };
        let mut values = Vec::with_capacity(plan.schema.len());
        values.extend_from_slice(&self.values);
        values.resize(plan.schema.len(), 0.0);
        for (&slot, &(_, _, value)) in plan.extra_slots.iter().zip(extra) {
            values[slot] = value;
        }
        CounterSnapshot {
            schema: Arc::clone(&plan.schema),
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(counters: &[(&str, CounterKind)]) -> Arc<CounterSchema> {
        Arc::new(CounterSchema::new(counters.iter().copied()))
    }

    #[test]
    fn duplicate_registration_shares_storage() {
        let s = schema(&[
            ("cache_miss", CounterKind::Performance),
            ("rx_bytes", CounterKind::Performance),
            ("cache_miss", CounterKind::Diagnostic),
        ]);
        // One slot per name, the first declaration's slot, the last kind.
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("cache_miss"), Some(0));
        assert_eq!(s.index_of("rx_bytes"), Some(1));
        assert_eq!(s.names(CounterKind::Diagnostic), vec!["cache_miss"]);
    }

    #[test]
    fn snapshot_is_immutable_copy() {
        let mut live = CounterSnapshot::zeroed(schema(&[("pps", CounterKind::Performance)]));
        live.values_mut()[0] = 10.0;
        let snap = live.clone();
        live.values_mut()[0] = 99.0;
        assert_eq!(snap.value("pps"), Some(10.0));
        assert_eq!(live.value("pps"), Some(99.0));
    }

    #[test]
    fn names_filtered_by_kind() {
        let s = schema(&[
            ("b_diag", CounterKind::Diagnostic),
            ("a_perf", CounterKind::Performance),
            ("a_diag", CounterKind::Diagnostic),
        ]);
        assert_eq!(s.names(CounterKind::Diagnostic), vec!["a_diag", "b_diag"]);
        assert_eq!(s.names(CounterKind::Performance), vec!["a_perf"]);
    }

    #[test]
    fn get_finds_existing_only() {
        let s = schema(&[("present", CounterKind::Performance)]);
        assert_eq!(s.index_of("present"), Some(0));
        assert!(s.index_of("missing").is_none());
        assert!(CounterSnapshot::zeroed(s).value("missing").is_none());
    }

    #[test]
    fn slots_keep_declaration_order_while_reads_run_sorted() {
        let s = schema(&[
            ("zz", CounterKind::Performance),
            ("aa", CounterKind::Diagnostic),
            ("mm", CounterKind::Performance),
        ]);
        let mut live = CounterSnapshot::zeroed(Arc::clone(&s));
        live.values_mut().copy_from_slice(&[1.0, 2.0, 3.0]);
        let triples: Vec<_> = live.iter().collect();
        assert_eq!(
            triples,
            vec![
                ("aa", CounterKind::Diagnostic, 2.0),
                ("mm", CounterKind::Performance, 3.0),
                ("zz", CounterKind::Performance, 1.0),
            ]
        );
        // Equal by content to the same triples under a sorted schema, in
        // memory and on the wire.
        let sorted =
            CounterSnapshot::from_triples(triples.iter().map(|&(n, k, v)| (n.to_string(), k, v)));
        assert_eq!(live, sorted);
        assert_eq!(live.to_value(), sorted.to_value());
        let round_trip = CounterSnapshot::from_value(&live.to_value()).unwrap();
        assert_eq!(round_trip, live);
        live.values_mut()[1] = 2.5;
        assert_ne!(live, sorted);
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
        fn borrowed(extra: &[(String, CounterKind, f64)]) -> Vec<(&str, CounterKind, f64)> {
            extra.iter().map(|(n, k, v)| (n.as_str(), *k, *v)).collect()
        }
        for case in 0..2000 {
            let base_triples = {
                let n = rng.gen_index(NAMES.len() + 1);
                draw(&mut rng, n)
            };
            let base = CounterSnapshot::from_triples(base_triples.clone());
            // The first list builds the schema's cached plan, its repeat
            // (new values, same names and kinds) reuses it, and a second
            // list takes the uncached path.
            let first = {
                let n = rng.gen_index(NAMES.len() + 1);
                draw(&mut rng, n)
            };
            let repeat: Vec<_> = first
                .iter()
                .map(|(n, k, _)| (n.clone(), *k, rng.gen_f64() * 10.0))
                .collect();
            let other = {
                let n = rng.gen_index(NAMES.len() + 1);
                draw(&mut rng, n)
            };
            for extra in [first, repeat, other] {
                let merged = base.merged(&borrowed(&extra));
                let expected = CounterSnapshot::from_triples(
                    base_triples.iter().cloned().chain(extra.iter().cloned()),
                );
                assert_eq!(merged, expected, "case {case}");
                assert_eq!(merged.to_value(), expected.to_value(), "case {case}");
            }
        }
    }
}
