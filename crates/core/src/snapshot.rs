//! World checkpointing: the complete simulated world, split into named
//! component sections and written to a content-addressed
//! [`SnapshotStore`] with a manifest chain.
//!
//! A [`WorldSnapshot`] wraps one store. Each [`WorldSnapshot::snapshot`]
//! call serializes a [`ScenarioState`] — orchestrator, all three domain
//! controllers, forecasters, control plane, every RNG stream, and the run
//! cursor — into per-component JSON blobs, stores each under its SHA-256,
//! and appends one manifest mapping section name → content hash. Because
//! slowly-changing sections (config, topology, quiet controllers) keep
//! their hashes, per-epoch checkpointing stores mostly deltas.
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

use crate::federation::FederationState;
use crate::orchestrator::section_of;
use crate::scenario::ScenarioState;
use ovnes_api::{
    replay_bisect as api_replay_bisect, Divergence, SnapshotError, SnapshotManifest, SnapshotStore,
};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Sections stored directly from the top level of [`ScenarioState`].
const TOP_SECTIONS: [&str; 3] = ["config", "generator", "cursor"];

/// Split a scenario state into named section blobs.
///
/// The state is rendered to a JSON tree once; top-level fields become the
/// `config`/`generator`/`cursor` sections and the orchestrator's fields are
/// regrouped by [`section_of`]. Splitting at the JSON layer keeps this
/// function oblivious to the concrete state structs: adding a field to any
/// state type automatically lands it in a section.
fn split_sections(state: &ScenarioState) -> Result<BTreeMap<String, Vec<u8>>, SnapshotError> {
    let Value::Object(mut top) = serde_json::to_value(state)? else {
        return Err(SnapshotError::Corrupt(
            "scenario state did not serialize to an object".into(),
        ));
    };
    let mut sections = BTreeMap::new();
    for name in TOP_SECTIONS {
        let value = top.remove(name).unwrap_or(Value::Null);
        sections.insert(name.to_string(), serde_json::to_vec(&value)?);
    }
    let Some(Value::Object(orch)) = top.remove("orchestrator") else {
        return Err(SnapshotError::Corrupt(
            "orchestrator state did not serialize to an object".into(),
        ));
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

/// Reassemble a scenario state from its section blobs (inverse of
/// [`split_sections`]). Every non-top-level section is merged back into the
/// orchestrator object, so assembly does not care how fields were grouped —
/// a snapshot written under an older grouping still restores.
fn assemble_sections(sections: &BTreeMap<String, Vec<u8>>) -> Result<ScenarioState, SnapshotError> {
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

/// Split a federation state into named section blobs: one `federation`
/// section holding the broker-level fields (config, cursor, backbone,
/// spill bookkeeping) and, per region `r`, the full single-world section
/// set under an `r{r}.` prefix. Region worlds thereby keep the existing
/// split's dedup and divergence-attribution granularity at shard scale —
/// [`replay_bisect`] on two federated runs names `r3.rng` or `r0.slices`,
/// not "the federation blob differs".
fn split_federation_sections(
    state: &FederationState,
) -> Result<BTreeMap<String, Vec<u8>>, SnapshotError> {
    let Value::Object(mut top) = serde_json::to_value(state)? else {
        return Err(SnapshotError::Corrupt(
            "federation state did not serialize to an object".into(),
        ));
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

/// Reassemble a federation state from its section blobs (inverse of
/// [`split_federation_sections`]).
fn assemble_federation_sections(
    sections: &BTreeMap<String, Vec<u8>>,
) -> Result<FederationState, SnapshotError> {
    let broker = sections.get("federation").ok_or_else(|| {
        SnapshotError::Corrupt("federation snapshot missing its broker section".into())
    })?;
    let Value::Object(mut top) = serde_json::from_slice(broker)? else {
        return Err(SnapshotError::Corrupt(
            "federation broker section is not an object".into(),
        ));
    };
    let mut per_region: BTreeMap<usize, BTreeMap<String, Vec<u8>>> = BTreeMap::new();
    for (name, bytes) in sections {
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
        per_region
            .entry(idx)
            .or_default()
            .insert(section.to_string(), bytes.clone());
    }
    let mut regions = Vec::with_capacity(per_region.len());
    for (expected, (idx, section_set)) in per_region.iter().enumerate() {
        if *idx != expected {
            return Err(SnapshotError::Corrupt(format!(
                "federation snapshot regions are not contiguous: missing r{expected}"
            )));
        }
        regions.push(serde_json::to_value(assemble_sections(section_set)?)?);
    }
    top.insert("regions".to_string(), Value::Array(regions));
    Ok(serde_json::from_value(Value::Object(top))?)
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
        let mut sections = BTreeMap::new();
        for (name, bytes) in split_sections(state)? {
            sections.insert(name, self.store.put_object(&bytes)?);
        }
        let manifest = SnapshotManifest {
            epoch,
            parent: self.store.latest_manifest()?.map(|m| m.root_hash()),
            sections,
        };
        self.store.append_manifest(&manifest)?;
        Ok(manifest)
    }

    /// Rebuild the world state checkpointed at `epoch`.
    pub fn restore(&self, epoch: u64) -> Result<ScenarioState, SnapshotError> {
        assemble_sections(&self.load_sections(epoch)?)
    }

    /// Checkpoint a federated world, chained onto the series tip. Broker
    /// state lands in a `federation` section and each region's world keeps
    /// the single-run section split under an `r{region}.` prefix, so quiet
    /// regions deduplicate across epochs exactly as quiet components do.
    pub fn snapshot_federation(
        &self,
        state: &FederationState,
    ) -> Result<SnapshotManifest, SnapshotError> {
        let mut sections = BTreeMap::new();
        for (name, bytes) in split_federation_sections(state)? {
            sections.insert(name, self.store.put_object(&bytes)?);
        }
        let manifest = SnapshotManifest {
            epoch: state.cursor.epochs,
            parent: self.store.latest_manifest()?.map(|m| m.root_hash()),
            sections,
        };
        self.store.append_manifest(&manifest)?;
        Ok(manifest)
    }

    /// Rebuild the federated world checkpointed at `epoch`.
    pub fn restore_federation(&self, epoch: u64) -> Result<FederationState, SnapshotError> {
        assemble_federation_sections(&self.load_sections(epoch)?)
    }

    fn load_sections(&self, epoch: u64) -> Result<BTreeMap<String, Vec<u8>>, SnapshotError> {
        let manifest = self.store.load_manifest(epoch)?;
        let mut sections = BTreeMap::new();
        for (name, section) in &manifest.sections {
            sections.insert(name.clone(), self.store.get_object(&section.hash)?);
        }
        Ok(sections)
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
        let sections = split_sections(&scn.export_state()).unwrap();
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
        let sections = split_federation_sections(&fed.export_state()).unwrap();
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
