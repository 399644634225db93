//! World checkpointing: the complete simulated world, split into named
//! component sections and written to a content-addressed
//! [`SnapshotStore`] with a manifest chain.
//!
//! A [`WorldSnapshot`] wraps one store. Each [`WorldSnapshot::snapshot`]
//! call serializes a [`ScenarioState`] — orchestrator, all three domain
//! controllers, forecasters, control plane, every RNG stream, and the run
//! cursor — into per-component JSON blobs, stores each under its SHA-256,
//! and appends one manifest mapping section name → content hash. Content
//! addressing buys integrity (an object that does not hash to its name is
//! refused) and the attribution below, not space: nearly every section
//! changes between checkpoints (`snapshot.dedup_ratio` 1.000–1.003).
//!
//! [`WorldSnapshot::restore`] reverses the split and yields a state from
//! which [`DemoScenario::from_state`](crate::scenario::DemoScenario::from_state)
//! rebuilds a world that resumes bit-for-bit: `run(a..b)` equals
//! `restore(snapshot(a)).run(..b)` on run summaries.
//!
//! Section granularity exists for divergence attribution: when two runs
//! that should agree do not, [`replay_bisect`] binary-searches their
//! manifest chains and names the *component* whose hash first moved (rng,
//! slices, forecast, transport, …) — far more actionable than "the 4 MB
//! world blob differs".
//!
//! There is one representation between the typed state and the stored
//! bytes, and it is the bytes: each section is written once, field by field
//! from the state structs, and read back field by field into them — no JSON
//! tree is built in either direction. Which section a field belongs to is a
//! compile-time table (beside
//! [`OrchestratorState`](crate::orchestrator::OrchestratorState)), so a
//! field that names no section does not build. One thread, the caller's,
//! serializes (a choice, not a constraint: the states are `Sync` plain
//! data), and what follows is spread over `ovnes_sim::par::par_map`'s
//! workers: hashing and storing the owned blobs, and on restore reading,
//! verifying and (per region) parsing them. `par_map` joins in input order,
//! so a manifest is the same at any worker count.

use crate::federation::FederationState;
use crate::orchestrator::OrchestratorState;
use crate::scenario::ScenarioState;
use ovnes_api::{
    replay_bisect as api_replay_bisect, Divergence, SnapshotError, SnapshotManifest, SnapshotStore,
};
use ovnes_sim::par::par_map;
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::value::RawValue;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Sections stored directly from the top level of [`ScenarioState`].
const TOP_SECTIONS: [&str; 3] = ["config", "generator", "cursor"];

/// Named section blobs, owned: as they are written (in writing order) and
/// as the store hands them back.
type OwnedSections = Vec<(String, Vec<u8>)>;

/// Named section blobs being read back, borrowed from what the store
/// returned and looked up by name.
type LoadedSections<'a> = BTreeMap<&'a str, &'a [u8]>;

/// One section's JSON object, written field by field from typed state:
/// `{"records":…,"placements":…}`. Field names are Rust identifiers, so
/// they need no escaping, and each value is exactly what serializing the
/// enclosing struct would have put after that key.
#[derive(Default)]
pub(crate) struct SectionWriter {
    out: Vec<u8>,
}

impl SectionWriter {
    /// Append `"name":value`.
    pub(crate) fn field<T: Serialize>(
        &mut self,
        name: &str,
        value: &T,
    ) -> Result<(), serde_json::Error> {
        self.out.push(if self.out.is_empty() { b'{' } else { b',' });
        self.out.push(b'"');
        self.out.extend_from_slice(name.as_bytes());
        self.out.extend_from_slice(b"\":");
        self.out.extend_from_slice(&serde_json::to_vec(value)?);
        Ok(())
    }

    /// Close the object and hand over its bytes.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        if self.out.is_empty() {
            self.out.push(b'{');
        }
        self.out.push(b'}');
        self.out
    }
}

/// The fields of one or more section objects, each kept as the unparsed
/// text it has in its section until [`RawFields::parse`] reads it into its
/// type. Sections are merged by field name, so reading does not care how
/// fields were grouped when written, and keys no field asks for are never
/// looked at.
#[derive(Default)]
pub(crate) struct RawFields<'a>(BTreeMap<&'a str, &'a RawValue>);

impl<'a> RawFields<'a> {
    /// Merge in the fields of the section `name`. A field already present
    /// is overridden, as a repeated key inside one object is.
    fn absorb(&mut self, name: &str, bytes: &'a [u8]) -> Result<(), SnapshotError> {
        let fields: BTreeMap<&str, &RawValue> =
            serde_json::from_slice(bytes).map_err(|e| codec_error("section", name, e))?;
        self.0.extend(fields);
        Ok(())
    }

    /// The field `name`, parsed into its type.
    pub(crate) fn parse<T: DeserializeOwned>(&self, name: &str) -> Result<T, SnapshotError> {
        let raw = self
            .0
            .get(name)
            .ok_or_else(|| SnapshotError::Corrupt(format!("snapshot is missing field `{name}`")))?;
        serde_json::from_str(raw.get()).map_err(|e| codec_error("field", name, e))
    }
}

/// A parse failure, saying which section or field it was found in.
fn codec_error(kind: &str, name: &str, e: serde_json::Error) -> SnapshotError {
    SnapshotError::Codec(serde::de::Error::custom(format_args!(
        "{kind} `{name}`: {e}"
    )))
}

/// Split a scenario state into named section blobs, appended to `out` with
/// `prefix` before each name.
///
/// Every section is written once, straight from the typed state: the
/// top-level fields become the `config`/`generator`/`cursor` sections and
/// the orchestrator's fields are grouped by the table beside
/// [`OrchestratorState`]. Both field lists are destructurings without `..`,
/// so a field added to either struct does not compile until it is given a
/// section.
fn split_sections(
    prefix: &str,
    state: &ScenarioState,
    out: &mut OwnedSections,
) -> Result<(), SnapshotError> {
    let ScenarioState {
        config,
        orchestrator,
        generator,
        cursor,
    } = state;
    out.push((format!("{prefix}config"), serde_json::to_vec(config)?));
    out.push((format!("{prefix}generator"), serde_json::to_vec(generator)?));
    out.push((format!("{prefix}cursor"), serde_json::to_vec(cursor)?));
    for (name, bytes) in orchestrator.to_sections()? {
        out.push((format!("{prefix}{name}"), bytes));
    }
    Ok(())
}

/// Reassemble a scenario state from its section blobs (inverse of
/// [`split_sections`]). The three top-level sections parse straight into
/// their types; the fields of every other section are merged and each is
/// parsed into its orchestrator field, so assembly does not care how fields
/// were grouped — a snapshot written under an older grouping still restores.
/// Keys this build has no field for are ignored; a field or top-level
/// section that is absent is an error naming it.
fn assemble_sections(sections: &LoadedSections<'_>) -> Result<ScenarioState, SnapshotError> {
    fn top<T: DeserializeOwned>(
        sections: &LoadedSections<'_>,
        name: &str,
    ) -> Result<T, SnapshotError> {
        let bytes = sections.get(name).ok_or_else(|| {
            SnapshotError::Corrupt(format!("snapshot is missing section `{name}`"))
        })?;
        serde_json::from_slice(bytes).map_err(|e| codec_error("section", name, e))
    }
    let mut fields = RawFields::default();
    for (name, bytes) in sections {
        if !TOP_SECTIONS.contains(name) {
            fields.absorb(name, bytes)?;
        }
    }
    Ok(ScenarioState {
        config: top(sections, "config")?,
        orchestrator: OrchestratorState::from_fields(&fields)?,
        generator: top(sections, "generator")?,
        cursor: top(sections, "cursor")?,
    })
}

/// Split a federation state into named section blobs: one `federation`
/// section holding the broker-level fields (config, cursor, backbone,
/// spill bookkeeping) and, per region `r`, the full single-world section
/// set under an `r{r}.` prefix. Region worlds thereby keep the existing
/// split's dedup and divergence-attribution granularity at shard scale —
/// [`replay_bisect`] on two federated runs names `r3.rng` or `r0.slices`,
/// not "the federation blob differs".
fn split_federation_sections(state: &FederationState) -> Result<OwnedSections, SnapshotError> {
    let FederationState {
        config,
        cursor,
        backbone,
        next_backbone_id,
        spill_routes,
        regions,
    } = state;
    let mut broker = SectionWriter::default();
    broker.field("config", config)?;
    broker.field("cursor", cursor)?;
    broker.field("backbone", backbone)?;
    broker.field("next_backbone_id", next_backbone_id)?;
    broker.field("spill_routes", spill_routes)?;
    let mut sections = vec![("federation".to_string(), broker.finish())];
    for (r, region) in regions.iter().enumerate() {
        split_sections(&format!("r{r}."), region, &mut sections)?;
    }
    Ok(sections)
}

/// Reassemble a federation state from its section blobs (inverse of
/// [`split_federation_sections`]). Regions are independent of each other,
/// so each is assembled by its own worker.
fn assemble_federation_sections(
    sections: &LoadedSections<'_>,
) -> Result<FederationState, SnapshotError> {
    let mut broker = RawFields::default();
    broker.absorb(
        "federation",
        sections.get("federation").ok_or_else(|| {
            SnapshotError::Corrupt("federation snapshot missing its broker section".into())
        })?,
    )?;
    let mut per_region: BTreeMap<usize, LoadedSections<'_>> = BTreeMap::new();
    for (&name, &bytes) in sections {
        if name == "federation" {
            continue;
        }
        let parsed = name
            .strip_prefix('r')
            .and_then(|rest| rest.split_once('.'))
            .and_then(|(idx, section)| idx.parse::<usize>().ok().map(|i| (i, section)));
        let Some((idx, section)) = parsed else {
            return Err(SnapshotError::Corrupt(format!(
                "unrecognized federation section {name}"
            )));
        };
        per_region.entry(idx).or_default().insert(section, bytes);
    }
    if let Some(missing) = (0..per_region.len()).find(|r| !per_region.contains_key(r)) {
        return Err(SnapshotError::Corrupt(format!(
            "federation snapshot regions are not contiguous: missing r{missing}"
        )));
    }
    let regions = par_map(per_region.into_iter().collect(), |(r, region)| {
        assemble_sections(&region).map_err(|e| match e {
            SnapshotError::Corrupt(m) => SnapshotError::Corrupt(format!("region r{r}: {m}")),
            SnapshotError::Codec(e) => codec_error("region", &format!("r{r}"), e),
            io => io,
        })
    });
    Ok(FederationState {
        config: broker.parse("config")?,
        cursor: broker.parse("cursor")?,
        backbone: broker.parse("backbone")?,
        next_backbone_id: broker.parse("next_backbone_id")?,
        spill_routes: broker.parse("spill_routes")?,
        regions: regions.into_iter().collect::<Result<_, _>>()?,
    })
}

/// What [`WorldSnapshot::load_sections`] read, by name.
fn borrowed(loaded: &OwnedSections) -> LoadedSections<'_> {
    loaded
        .iter()
        .map(|(name, bytes)| (name.as_str(), bytes.as_slice()))
        .collect()
}

/// A checkpoint series for one run: a content-addressed store plus the
/// component split/assemble logic.
#[derive(Debug, Clone)]
pub struct WorldSnapshot {
    store: SnapshotStore,
}

impl WorldSnapshot {
    /// Open (creating as needed) a checkpoint series rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<WorldSnapshot, SnapshotError> {
        Ok(WorldSnapshot {
            store: SnapshotStore::open(root)?,
        })
    }

    /// The underlying content-addressed store (for size/dedup inspection
    /// and for handing to [`replay_bisect`]).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Checkpoint `state`, chained onto the series tip.
    ///
    /// The checkpoint epoch is the cursor's completed-epoch count (0 before
    /// the first step), so manifests of two runs of the same scenario line
    /// up epoch-for-epoch. Consecutive snapshots must advance the epoch —
    /// snapshot after stepping, not before.
    pub fn snapshot(&self, state: &ScenarioState) -> Result<SnapshotManifest, SnapshotError> {
        let epoch = state.cursor.as_ref().map_or(0, |c| c.epochs);
        let mut sections = Vec::new();
        split_sections("", state, &mut sections)?;
        self.store_sections(epoch, sections)
    }

    /// Rebuild the world state checkpointed at `epoch`.
    pub fn restore(&self, epoch: u64) -> Result<ScenarioState, SnapshotError> {
        let loaded = self.load_sections(epoch)?;
        assemble_sections(&borrowed(&loaded))
    }

    /// Checkpoint a federated world, chained onto the series tip. Broker
    /// state lands in a `federation` section and each region's world keeps
    /// the single-run section split under an `r{region}.` prefix, so quiet
    /// regions deduplicate across epochs exactly as quiet components do.
    pub fn snapshot_federation(
        &self,
        state: &FederationState,
    ) -> Result<SnapshotManifest, SnapshotError> {
        self.store_sections(state.cursor.epochs, split_federation_sections(state)?)
    }

    /// Rebuild the federated world checkpointed at `epoch`.
    pub fn restore_federation(&self, epoch: u64) -> Result<FederationState, SnapshotError> {
        let loaded = self.load_sections(epoch)?;
        assemble_federation_sections(&borrowed(&loaded))
    }

    /// Hash and store every section, then chain the manifest naming them
    /// onto the series tip. The states were serialized on the caller's
    /// thread; the owned blobs are spread over the workers, and `par_map`
    /// joins them in input order, so the manifest does not depend on the
    /// worker count.
    fn store_sections(
        &self,
        epoch: u64,
        sections: OwnedSections,
    ) -> Result<SnapshotManifest, SnapshotError> {
        let stored = par_map(sections, |(name, bytes)| {
            Ok((name, self.store.put_object(&bytes)?))
        });
        let sections = stored.into_iter().collect::<Result<_, SnapshotError>>()?;
        self.store.append_checkpoint(epoch, sections)
    }

    /// Read every section of the checkpoint at `epoch`, each verified
    /// against its content address, on the workers.
    fn load_sections(&self, epoch: u64) -> Result<OwnedSections, SnapshotError> {
        let manifest = self.store.load_manifest(epoch)?;
        let loaded = par_map(
            manifest.sections.into_iter().collect(),
            |(name, section)| Ok((name, self.store.get_object(&section.hash)?)),
        );
        loaded.into_iter().collect()
    }

    /// Rebuild the most recent checkpoint, if any.
    pub fn restore_latest(&self) -> Result<Option<(u64, ScenarioState)>, SnapshotError> {
        match self.store.latest_manifest()? {
            Some(manifest) => Ok(Some((manifest.epoch, self.restore(manifest.epoch)?))),
            None => Ok(None),
        }
    }

    /// Checkpointed epochs, ascending.
    pub fn epochs(&self) -> Result<Vec<u64>, SnapshotError> {
        self.store.epochs()
    }
}

/// Find the first checkpoint where two runs that should agree diverge,
/// naming the epoch and the component sections whose hashes moved. See
/// [`ovnes_api::snapshot::replay_bisect`].
pub fn replay_bisect(
    a: &WorldSnapshot,
    b: &WorldSnapshot,
) -> Result<Option<Divergence>, SnapshotError> {
    api_replay_bisect(a.store(), b.store())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DemoScenario, ScenarioConfig};
    use ovnes_sim::SimDuration;
    use std::ops::Deref;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A snapshot store in a fresh temp directory, removed when dropped.
    struct Scratch(WorldSnapshot);

    impl Deref for Scratch {
        type Target = WorldSnapshot;
        fn deref(&self) -> &WorldSnapshot {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.0.store().root());
        }
    }

    fn scratch(tag: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ovnes-world-{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(WorldSnapshot::open(dir).unwrap())
    }

    fn config(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            arrivals_per_hour: 20.0,
            horizon: SimDuration::from_hours(2),
            mean_duration: SimDuration::from_mins(45),
            ..ScenarioConfig::default()
        }
    }

    /// The split and assembly this module shipped before: the state rendered
    /// to a `serde_json::Value` tree, regrouped by a run-time `section_of`,
    /// and rebuilt through `from_value`. Kept as the reference the typed
    /// path is compared with, and as the "older build" whose snapshots must
    /// still restore.
    mod oracle {
        use super::super::TOP_SECTIONS;
        use crate::federation::FederationState;
        use crate::scenario::ScenarioState;
        use ovnes_api::SnapshotError;
        use serde_json::{Map, Value};
        use std::collections::BTreeMap;

        pub type Sections = BTreeMap<String, Vec<u8>>;

        fn section_of(field: &str) -> &'static str {
            match field {
                "ran" => "ran",
                "transport" => "transport",
                "cloud" => "cloud",
                "engine" => "forecast",
                "control" => "control",
                "sla" => "sla",
                "metrics" | "events" => "telemetry",
                "rng" => "rng",
                "records" | "placements" | "pending" | "ready_at" | "epc_down_until"
                | "timelines" | "pf" | "sim_state" | "free_plmns" | "next_plmn" | "ids"
                | "ue_ids" => "slices",
                "weather" | "weather_rng" | "last_sky" | "substrate_plan" | "substrate_down"
                | "substrate_degraded" => "environment",
                _ => "orchestrator",
            }
        }

        pub fn split_sections(state: &ScenarioState) -> Result<Sections, SnapshotError> {
            let Value::Object(mut top) = serde_json::to_value(state)? else {
                panic!("scenario state did not serialize to an object");
            };
            let mut sections = BTreeMap::new();
            for name in TOP_SECTIONS {
                let value = top.remove(name).unwrap_or(Value::Null);
                sections.insert(name.to_string(), serde_json::to_vec(&value)?);
            }
            let Some(Value::Object(orch)) = top.remove("orchestrator") else {
                panic!("orchestrator state did not serialize to an object");
            };
            let mut groups: BTreeMap<&'static str, Map<String, Value>> = BTreeMap::new();
            for (field, value) in orch {
                groups
                    .entry(section_of(&field))
                    .or_default()
                    .insert(field, value);
            }
            for (name, fields) in groups {
                sections.insert(
                    name.to_string(),
                    serde_json::to_vec(&Value::Object(fields))?,
                );
            }
            Ok(sections)
        }

        pub fn assemble_sections(sections: &Sections) -> Result<ScenarioState, SnapshotError> {
            let mut top = Map::new();
            let mut orch = Map::new();
            for (name, bytes) in sections {
                let value: Value = serde_json::from_slice(bytes)?;
                if TOP_SECTIONS.contains(&name.as_str()) {
                    top.insert(name.clone(), value);
                } else {
                    let Value::Object(fields) = value else {
                        return Err(SnapshotError::Corrupt(format!(
                            "section {name} is not an object"
                        )));
                    };
                    orch.extend(fields);
                }
            }
            top.insert("orchestrator".to_string(), Value::Object(orch));
            Ok(serde_json::from_value(Value::Object(top))?)
        }

        pub fn split_federation_sections(
            state: &FederationState,
        ) -> Result<Sections, SnapshotError> {
            let Value::Object(mut top) = serde_json::to_value(state)? else {
                panic!("federation state did not serialize to an object");
            };
            top.remove("regions");
            let mut sections = BTreeMap::new();
            sections.insert(
                "federation".to_string(),
                serde_json::to_vec(&Value::Object(top))?,
            );
            for (r, region) in state.regions.iter().enumerate() {
                for (name, bytes) in split_sections(region)? {
                    sections.insert(format!("r{r}.{name}"), bytes);
                }
            }
            Ok(sections)
        }

        pub fn assemble_federation_sections(
            sections: &Sections,
        ) -> Result<FederationState, SnapshotError> {
            let Value::Object(mut top) = serde_json::from_slice(&sections["federation"])? else {
                panic!("federation broker section is not an object");
            };
            let mut per_region: BTreeMap<usize, Sections> = BTreeMap::new();
            for (name, bytes) in sections {
                if name == "federation" {
                    continue;
                }
                let (idx, section) = name[1..].split_once('.').expect("an r{idx}.{name} section");
                per_region
                    .entry(idx.parse().expect("a region index"))
                    .or_default()
                    .insert(section.to_string(), bytes.clone());
            }
            let mut regions = Vec::with_capacity(per_region.len());
            for section_set in per_region.values() {
                regions.push(serde_json::to_value(assemble_sections(section_set)?)?);
            }
            top.insert("regions".to_string(), Value::Array(regions));
            Ok(serde_json::from_value(Value::Object(top))?)
        }
    }

    /// A world of either shape, so one test body covers both.
    #[allow(clippy::large_enum_variant)] // a handful of values, never stored in bulk
    #[derive(Clone, Debug, PartialEq)]
    enum World {
        Single(ScenarioState),
        Federated(FederationState),
    }

    impl World {
        fn split(&self) -> oracle::Sections {
            let sections = match self {
                World::Single(state) => {
                    let mut sections = Vec::new();
                    split_sections("", state, &mut sections).unwrap();
                    sections
                }
                World::Federated(state) => split_federation_sections(state).unwrap(),
            };
            let count = sections.len();
            let sections: oracle::Sections = sections.into_iter().collect();
            assert_eq!(sections.len(), count, "a section name was written twice");
            sections
        }

        fn oracle_split(&self) -> oracle::Sections {
            match self {
                World::Single(state) => oracle::split_sections(state).unwrap(),
                World::Federated(state) => oracle::split_federation_sections(state).unwrap(),
            }
        }

        /// The world of this one's shape that `sections` assemble to.
        fn assemble(&self, sections: &oracle::Sections) -> Result<World, SnapshotError> {
            let loaded: LoadedSections<'_> = sections
                .iter()
                .map(|(name, bytes)| (name.as_str(), bytes.as_slice()))
                .collect();
            Ok(match self {
                World::Single(_) => World::Single(assemble_sections(&loaded)?),
                World::Federated(_) => World::Federated(assemble_federation_sections(&loaded)?),
            })
        }

        fn oracle_assemble(&self, sections: &oracle::Sections) -> World {
            match self {
                World::Single(_) => World::Single(oracle::assemble_sections(sections).unwrap()),
                World::Federated(_) => {
                    World::Federated(oracle::assemble_federation_sections(sections).unwrap())
                }
            }
        }

        fn snapshot(&self, store: &WorldSnapshot) -> SnapshotManifest {
            match self {
                World::Single(state) => store.snapshot(state).unwrap(),
                World::Federated(state) => store.snapshot_federation(state).unwrap(),
            }
        }

        fn restore(&self, store: &WorldSnapshot, epoch: u64) -> Result<World, SnapshotError> {
            Ok(match self {
                World::Single(_) => World::Single(store.restore(epoch)?),
                World::Federated(_) => World::Federated(store.restore_federation(epoch)?),
            })
        }
    }

    fn single_world(seed: u64, epochs: usize, faults: bool) -> World {
        use ovnes_api::{EndpointFaults, FaultPlan, SubstrateElement, SubstrateFaultPlan};
        let mut scn = DemoScenario::build(config(seed));
        if faults {
            let links: Vec<SubstrateElement> = (0..4)
                .map(|l| SubstrateElement::Link(ovnes_model::LinkId::new(l)))
                .collect();
            let orchestrator = scn.orchestrator_mut();
            orchestrator.set_fault_plan(
                FaultPlan::new(seed ^ 0xFA17)
                    .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.3)),
            );
            orchestrator.set_substrate_plan(SubstrateFaultPlan::new(seed).with_random_outages(
                &links,
                2.0,
                SimDuration::from_mins(10),
                SimDuration::from_hours(2),
            ));
        }
        for _ in 0..epochs {
            assert!(scn.step_epoch());
        }
        let state = scn.export_state();
        assert_eq!(state.orchestrator.substrate_plan.is_some(), faults);
        World::Single(state)
    }

    fn federated_world(seed: u64, regions: usize, epochs: usize) -> World {
        let mut fed = crate::federation::FederationBroker::build(fed_config(seed, regions));
        for _ in 0..epochs {
            assert!(fed.step_epoch());
        }
        World::Federated(fed.export_state())
    }

    /// Six seeded worlds: single and federated, fresh (no cursor yet) and
    /// mid-run, one with a chaos plan and a substrate plan mid-schedule.
    fn worlds() -> Vec<World> {
        vec![
            single_world(61, 0, false),
            single_world(62, 9, false),
            single_world(63, 8, true),
            single_world(64, 14, true),
            federated_world(65, 2, 3),
            federated_world(66, 2, 9),
        ]
    }

    /// The world states are plain data a worker may borrow: no interior
    /// mutability anywhere under them.
    #[test]
    fn world_states_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<FederationState>();
        assert_sync::<ScenarioState>();
        assert_sync::<ovnes_sim::MetricRegistry>();
    }

    #[test]
    fn typed_split_writes_the_oracles_sections() {
        for (i, world) in worlds().iter().enumerate() {
            let (ours, theirs) = (world.split(), world.oracle_split());
            assert_eq!(
                ours.keys().collect::<Vec<_>>(),
                theirs.keys().collect::<Vec<_>>(),
                "world {i}: section names"
            );
            for (name, bytes) in &ours {
                let value: serde_json::Value = serde_json::from_slice(bytes).unwrap();
                let expect: serde_json::Value = serde_json::from_slice(&theirs[name]).unwrap();
                assert!(value == expect, "world {i}: section {name} differs");
                assert_eq!(bytes.len(), theirs[name].len(), "world {i}: section {name}");
            }
        }
    }

    #[test]
    fn sections_of_either_build_restore_through_the_other() {
        for (i, world) in worlds().iter().enumerate() {
            // An older build's snapshot through the typed assembly …
            let restored = world.assemble(&world.oracle_split()).unwrap();
            assert!(
                restored == *world,
                "world {i}: oracle sections, typed assembly"
            );
            // … and this build's through the tree.
            let restored = world.oracle_assemble(&world.split());
            assert!(
                restored == *world,
                "world {i}: typed sections, oracle assembly"
            );
        }
    }

    #[test]
    fn manifest_and_restore_do_not_depend_on_the_worker_count() {
        for (i, world) in [single_world(67, 6, true), federated_world(68, 2, 5)]
            .iter()
            .enumerate()
        {
            let mut roots = Vec::new();
            for threads in [1, 2, 8] {
                let _pin = ovnes_sim::par::pin_threads(threads);
                let store = scratch("workers");
                let manifest = world.snapshot(&store);
                let restored = world.restore(&store, manifest.epoch).unwrap();
                assert!(restored == *world, "world {i}, {threads} workers");
                roots.push(manifest.root_hash());
            }
            assert!(
                roots.iter().all(|root| *root == roots[0]),
                "world {i}: {roots:?}"
            );
        }
    }

    /// `sections` with `name` replaced by `bytes`.
    fn with_section(sections: &oracle::Sections, name: &str, bytes: &[u8]) -> oracle::Sections {
        let mut sections = sections.clone();
        sections.insert(name.to_string(), bytes.to_vec());
        sections
    }

    #[test]
    fn a_removed_field_or_section_is_an_error_naming_it() {
        let world = single_world(69, 5, false);
        let sections = world.split();
        // `last_epoch_at` is an `Option`: absent must not read as `None`.
        for (section, field) in [("slices", "pf"), ("orchestrator", "last_epoch_at")] {
            let mut object: serde_json::Map<String, serde_json::Value> =
                serde_json::from_slice(&sections[section]).unwrap();
            assert!(object.remove(field).is_some());
            let bytes = serde_json::to_vec(&object).unwrap();
            let error = world
                .assemble(&with_section(&sections, section, &bytes))
                .unwrap_err();
            assert!(matches!(error, SnapshotError::Corrupt(_)), "{error}");
            assert!(error.to_string().contains(&format!("`{field}`")), "{error}");
        }
        for section in TOP_SECTIONS {
            let mut without = sections.clone();
            without.remove(section);
            let error = world.assemble(&without).unwrap_err();
            assert!(matches!(error, SnapshotError::Corrupt(_)), "{error}");
            assert!(
                error.to_string().contains(&format!("`{section}`")),
                "{error}"
            );
        }
    }

    #[test]
    fn malformed_section_bytes_are_a_codec_error_naming_the_section() {
        let world = federated_world(70, 2, 2);
        let sections = world.split();
        for section in ["federation", "r0.config", "r1.slices", "r1.rng"] {
            let whole = &sections[section];
            let mut not_utf8 = whole.clone();
            let middle = not_utf8.len() / 2;
            not_utf8[middle] = 0xff;
            for (what, bytes) in [
                ("an array", b"[]".as_slice()),
                ("not UTF-8", not_utf8.as_slice()),
                ("truncated", &whole[..whole.len() / 2]),
                ("empty", b"".as_slice()),
            ] {
                let error = world
                    .assemble(&with_section(&sections, section, bytes))
                    .expect_err(what);
                assert!(matches!(error, SnapshotError::Codec(_)), "{what}: {error}");
                let (region, name) = section.split_once('.').unwrap_or(("", section));
                let message = error.to_string();
                assert!(
                    message.contains(region) && message.contains(&format!("`{name}`")),
                    "{section} {what}: {message}"
                );
            }
        }
    }

    #[test]
    fn a_manifest_without_a_region_or_cut_in_half_is_a_typed_error() {
        let world = federated_world(71, 3, 1);
        let store = scratch("hostile-manifest");
        let manifest = world.snapshot(&store);

        // A later manifest that names every section but region 1's.
        let sections = manifest.sections.clone().into_iter();
        let sections = sections
            .filter(|(name, _)| !name.starts_with("r1."))
            .collect();
        let gapped = store
            .store()
            .append_checkpoint(manifest.epoch + 1, sections)
            .unwrap();
        let error = world.restore(&store, gapped.epoch).unwrap_err();
        assert!(matches!(error, SnapshotError::Corrupt(_)), "{error}");
        assert!(error.to_string().contains("missing r1"), "{error}");

        // The first manifest's file, cut in half.
        let path = store.store().root().join("manifests");
        let path = path.join(format!("epoch-{:020}.json", manifest.epoch));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let error = world.restore(&store, manifest.epoch).unwrap_err();
        assert!(matches!(error, SnapshotError::Codec(_)), "{error}");
    }

    #[test]
    fn snapshot_restore_round_trips_structurally() {
        let mut scn = DemoScenario::build(config(41));
        for _ in 0..9 {
            assert!(scn.step_epoch());
        }
        let state = scn.export_state();
        let world = scratch("roundtrip");
        let manifest = world.snapshot(&state).unwrap();
        assert_eq!(manifest.epoch, 9);
        let restored = world.restore(9).unwrap();
        assert_eq!(restored, state, "restore(snapshot(s)) == s");
        assert_eq!(world.restore_latest().unwrap(), Some((9, state)));
    }

    #[test]
    fn restored_world_resumes_bit_for_bit() {
        let reference = DemoScenario::build(config(43)).run();

        let mut scn = DemoScenario::build(config(43));
        for _ in 0..7 {
            assert!(scn.step_epoch());
        }
        let world = scratch("resume");
        world.snapshot(&scn.export_state()).unwrap();
        // The original is dropped; only the on-disk snapshot survives.
        drop(scn);
        let (epoch, state) = world.restore_latest().unwrap().unwrap();
        assert_eq!(epoch, 7);
        let mut resumed = DemoScenario::from_state(&state);
        assert_eq!(resumed.run(), reference);
    }

    #[test]
    fn sections_cover_expected_components() {
        let scn = DemoScenario::build(config(45));
        let sections = World::Single(scn.export_state()).split();
        let names: Vec<&str> = sections.keys().map(String::as_str).collect();
        for expected in [
            "cloud",
            "config",
            "control",
            "cursor",
            "environment",
            "forecast",
            "generator",
            "orchestrator",
            "ran",
            "rng",
            "sla",
            "slices",
            "telemetry",
            "transport",
        ] {
            assert!(
                names.contains(&expected),
                "missing section {expected}: {names:?}"
            );
        }
        assert_eq!(names.len(), 14, "exactly the expected sections: {names:?}");
    }

    fn fed_config(seed: u64, regions: usize) -> crate::federation::FederationConfig {
        crate::federation::FederationConfig {
            seed,
            regions,
            arrivals_per_hour: 20.0,
            horizon: SimDuration::from_hours(2),
            mean_duration: SimDuration::from_mins(45),
            ..crate::federation::FederationConfig::default()
        }
    }

    #[test]
    fn federation_sections_cover_broker_and_every_region() {
        use crate::federation::FederationBroker;
        let mut fed = FederationBroker::build(fed_config(51, 2));
        for _ in 0..3 {
            assert!(fed.step_epoch());
        }
        let sections = World::Federated(fed.export_state()).split();
        let names: Vec<&str> = sections.keys().map(String::as_str).collect();
        assert!(names.contains(&"federation"), "{names:?}");
        for r in 0..2 {
            for component in [
                "cloud",
                "config",
                "control",
                "cursor",
                "environment",
                "forecast",
                "generator",
                "orchestrator",
                "ran",
                "rng",
                "sla",
                "slices",
                "telemetry",
                "transport",
            ] {
                let want = format!("r{r}.{component}");
                assert!(
                    names.contains(&want.as_str()),
                    "missing section {want}: {names:?}"
                );
            }
        }
        // 1 broker section + the full 14-section split per region.
        assert_eq!(names.len(), 1 + 2 * 14, "{names:?}");
    }

    #[test]
    fn federated_restore_resumes_bit_for_bit() {
        use crate::federation::FederationBroker;
        let reference = FederationBroker::build(fed_config(53, 2)).run();

        let mut fed = FederationBroker::build(fed_config(53, 2));
        for _ in 0..7 {
            assert!(fed.step_epoch());
        }
        let world = scratch("fed-resume");
        let manifest = world.snapshot_federation(&fed.export_state()).unwrap();
        assert_eq!(manifest.epoch, 7);
        drop(fed);
        let state = world.restore_federation(7).unwrap();
        let mut resumed = FederationBroker::from_state(&state);
        assert_eq!(resumed.run(), reference);
    }

    #[test]
    fn federated_bisect_blames_the_perturbed_region_component() {
        use crate::federation::FederationBroker;
        let world_a = scratch("fed-bisect-a");
        let world_b = scratch("fed-bisect-b");
        let mut fed = FederationBroker::build(fed_config(55, 2));
        for epoch in 1..=6u64 {
            assert!(fed.step_epoch());
            let state = fed.export_state();
            world_a.snapshot_federation(&state).unwrap();
            let mut forked = state.clone();
            if epoch >= 4 {
                forked.regions[1].cursor.as_mut().unwrap().submitted += 1;
            }
            world_b.snapshot_federation(&forked).unwrap();
        }
        let d = replay_bisect(&world_a, &world_b)
            .unwrap()
            .expect("diverges");
        assert_eq!(d.epoch, 4);
        assert_eq!(d.components, vec!["r1.cursor".to_string()]);
    }

    #[test]
    fn stable_sections_deduplicate_across_epochs() {
        let mut scn = DemoScenario::build(config(47));
        let world = scratch("dedup");
        let mut manifests = Vec::new();
        for _ in 0..4 {
            assert!(scn.step_epoch());
            manifests.push(world.snapshot(&scn.export_state()).unwrap());
        }
        // The config section never changes: one object serves all four
        // checkpoints, so the store holds fewer objects than 4 × sections.
        let config_hashes: std::collections::BTreeSet<&str> = manifests
            .iter()
            .map(|m| m.sections["config"].hash.as_str())
            .collect();
        assert_eq!(config_hashes.len(), 1, "config stored once");
        let total_refs: u64 = manifests.iter().map(|m| m.sections.len() as u64).sum();
        assert!(
            world.store().object_count().unwrap() < total_refs,
            "content addressing deduplicates"
        );
    }

    #[test]
    fn bisect_blames_the_perturbed_component() {
        // Two identical runs checkpointed side by side, except run B's
        // cursor is perturbed from epoch 5 on: the bisector must name
        // epoch 5 and the cursor section, nothing else.
        let world_a = scratch("bisect-a");
        let world_b = scratch("bisect-b");
        let mut scn = DemoScenario::build(config(49));
        for epoch in 1..=8u64 {
            assert!(scn.step_epoch());
            let state = scn.export_state();
            world_a.snapshot(&state).unwrap();
            let mut forked = state.clone();
            if epoch >= 5 {
                forked.cursor.as_mut().unwrap().submitted += 1;
            }
            world_b.snapshot(&forked).unwrap();
        }
        let d = replay_bisect(&world_a, &world_b)
            .unwrap()
            .expect("diverges");
        assert_eq!(d.epoch, 5);
        assert_eq!(d.components, vec!["cursor".to_string()]);
    }
}
