//! The content-addressed plan registry: ship a planning outcome as a
//! JSON artifact, load it elsewhere, serve bit-identically.
//!
//! Planning is the expensive deterministic half of a deployment (a
//! probe, a trace per candidate form, and the choice of form vector);
//! keys and weights are the cheap-to-rederive, never-shipped half. A
//! [`PlanRegistry`] persists exactly the first:
//! [`PlanRegistry::save_plan`] writes a versioned
//! JSON envelope whose filename is a *content address* — a stable
//! [`fnv1a_64`] hash over the probed model description, the CKKS
//! parameters, the objective, and the candidate form list.
//! [`PlanRegistry::load_plan`] recomputes that address from
//! the caller's own [`SessionBuilder`], so an artifact can never be
//! applied to a model it was not planned for; the loaded plan is
//! validated by a single re-trace and compiles to a session that
//! serves bit-identically to a freshly planned one (same builder
//! seed ⇒ same keys ⇒ same ciphertext arithmetic).
//!
//! Lookup is exact: when the content address matches there is no
//! planning at all — [`Plan::dry_runs_used`] is 0 and the single
//! validation re-trace is the only trace spent.
//!
//! On-disk format, field-by-field schema, and compatibility rules are
//! specified in `docs/ARTIFACT_FORMAT.md`.
//!
//! # Example
//!
//! ```
//! use smartpaf::{PlanRegistry, Session};
//! use smartpaf_ckks::CkksParams;
//! use smartpaf_nn::Linear;
//! use smartpaf_tensor::Rng64;
//!
//! let dir = std::env::temp_dir().join(format!("smartpaf-registry-mod-doc-{}", std::process::id()));
//! let registry = PlanRegistry::open(&dir).unwrap();
//!
//! // One process plans and publishes…
//! let build = || {
//!     let mut rng = Rng64::new(3);
//!     Session::builder(&[4])
//!         .affine(Linear::new(4, 4, &mut rng))
//!         .relu(2.0)
//!         .params(CkksParams::toy())
//!         .seed(11)
//! };
//! let key = registry.save_plan(&build().plan().unwrap()).unwrap();
//!
//! // …another (here: the same) loads without planning and serves.
//! let plan = registry.load_plan(build()).unwrap();
//! assert_eq!(plan.dry_runs_used(), 0);
//! let mut session = plan.compile().unwrap();
//! let out = session.infer(&[0.5, -0.5, 0.25, -0.25]).unwrap();
//! assert_eq!(out.len(), 4);
//! assert!(registry.list().unwrap().iter().any(|info| info.content_key == key));
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::session::{Objective, Plan, PlanBody, PlannedCandidate, SessionBuilder, SessionError};
use serde::{json, Deserialize, Serialize, Value};
use smartpaf_ckks::CkksParams;
use smartpaf_heinfer::{fnv1a_64, PipelineDesc};
use smartpaf_polyfit::{CompositePaf, PafForm};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Version of the on-disk envelope this build reads and writes.
/// Bumped on any breaking schema change; readers reject other versions
/// with [`RegistryError::VersionMismatch`] instead of guessing.
pub const FORMAT_VERSION: u32 = 6;

/// The envelope's `format` marker, so arbitrary JSON is rejected
/// before any field is interpreted.
const FORMAT_MARKER: &str = "smartpaf-plan";

/// Typed failure of a registry operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The filesystem said no (permissions, missing directory, …).
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// The file is not a well-formed plan artifact (broken JSON, a
    /// missing field, a wrong `format` marker).
    Parse {
        /// The offending file.
        path: PathBuf,
        /// What failed to parse.
        message: String,
    },
    /// The artifact's `format_version` is one this build does not
    /// read.
    VersionMismatch {
        /// The version stored in the artifact.
        found: u64,
        /// The version this build supports ([`FORMAT_VERSION`]).
        supported: u32,
    },
    /// No artifact exists for the model's content address.
    NotFound {
        /// The content key derived from the caller's builder.
        key: String,
    },
    /// The artifact parsed but contradicts itself or the model it is
    /// addressed to (stale hash, edited fields, trace mismatch).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// The contradiction found.
        message: String,
    },
    /// Probing the caller's builder failed before the registry was
    /// ever consulted.
    Session(SessionError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io { path, message } => {
                write!(f, "registry I/O error at {}: {message}", path.display())
            }
            RegistryError::Parse { path, message } => {
                write!(f, "malformed plan artifact {}: {message}", path.display())
            }
            RegistryError::VersionMismatch { found, supported } => write!(
                f,
                "plan artifact format v{found} unsupported (this build reads v{supported})"
            ),
            RegistryError::NotFound { key } => {
                write!(f, "no plan artifact for content key {key}")
            }
            RegistryError::Corrupt { path, message } => {
                write!(f, "corrupt plan artifact {}: {message}", path.display())
            }
            RegistryError::Session(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SessionError> for RegistryError {
    fn from(e: SessionError) -> Self {
        RegistryError::Session(e)
    }
}

/// One registry entry as [`PlanRegistry::list`] reports it — enough to
/// pick artifacts without re-parsing full envelopes by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// The content address (also the filename stem).
    pub content_key: String,
    /// Where the artifact lives.
    pub path: PathBuf,
    /// The stored plan's chosen form vector, one form per PAF slot.
    pub chosen_forms: Vec<PafForm>,
    /// Dry runs the original planner spent producing the plan.
    pub dry_runs: usize,
}

/// Retention policy for [`PlanRegistry::gc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPolicy {
    /// Keep at most this many artifacts; the newest survive.
    MaxArtifacts(usize),
    /// Remove every artifact whose file is older than this age.
    MaxAge(std::time::Duration),
}

/// What one [`PlanRegistry::gc`] sweep did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Content keys of the removed artifacts, in removal order:
    /// superseded-format files first, then the policy's victims
    /// (oldest first).
    pub removed: Vec<String>,
    /// Artifacts still in the registry after the sweep.
    pub retained: usize,
}

/// A file under the registry root with its vetted envelope, or why
/// vetting failed.
type Vetted = (PathBuf, Result<Value, RegistryError>);

/// A content-addressed, directory-backed store of planning outcomes.
/// See the [module docs](self) for the deployment story and
/// `docs/ARTIFACT_FORMAT.md` for the wire format.
#[derive(Debug, Clone)]
pub struct PlanRegistry {
    root: PathBuf,
}

impl PlanRegistry {
    /// Opens (creating if needed) a registry rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<PlanRegistry, RegistryError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root).map_err(|e| RegistryError::Io {
            path: root.clone(),
            message: e.to_string(),
        })?;
        Ok(PlanRegistry { root })
    }

    /// The registry's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn artifact_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.json"))
    }

    /// Persists a plan under its content address and returns the key.
    /// Saving the same plan (or any plan of the same planning inputs)
    /// twice overwrites the same file — the registry is a cache, and
    /// identical inputs produce identical plans.
    pub fn save_plan(&self, plan: &Plan) -> Result<String, RegistryError> {
        let desc = plan.pipeline().describe();
        let key = content_key(
            &desc,
            plan.params(),
            &plan.objective(),
            plan.candidate_forms(),
        );
        let envelope = Value::object([
            ("format", FORMAT_MARKER.serialize()),
            ("format_version", u64::from(FORMAT_VERSION).serialize()),
            ("content_key", key.serialize()),
            ("pipeline", desc.serialize()),
            ("plan", plan.serialize()),
        ]);
        let path = self.artifact_path(&key);
        let tmp = self.root.join(format!("{key}.json.tmp"));
        let io_err = |p: &Path, e: io::Error| RegistryError::Io {
            path: p.to_path_buf(),
            message: e.to_string(),
        };
        let mut text = json::to_string_pretty(&envelope);
        text.push('\n');
        fs::write(&tmp, text).map_err(|e| io_err(&tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        Ok(key)
    }

    /// Loads the artifact matching the builder's content address,
    /// validates it, and returns a ready-to-compile [`Plan`] without
    /// running the planner ([`Plan::dry_runs_used`] is 0).
    ///
    /// The builder is probed exactly as [`SessionBuilder::plan`] would
    /// (that probe is what the content address covers), the stored
    /// composites are installed, and one validation re-trace checks
    /// the artifact's recorded schedule against the model. Compiling
    /// the result serves bit-identically to a freshly planned session
    /// with the same builder seed.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`] when no artifact matches;
    /// [`RegistryError::Parse`] / [`RegistryError::VersionMismatch`] /
    /// [`RegistryError::Corrupt`] when one does but cannot be trusted;
    /// [`RegistryError::Session`] when the builder itself cannot be
    /// probed.
    pub fn load_plan(&self, builder: SessionBuilder) -> Result<Plan, RegistryError> {
        let probed = builder.probe()?;
        let desc = probed.base.describe();
        let key = content_key(&desc, &probed.params, &probed.objective, &probed.forms);
        let path = self.artifact_path(&key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(RegistryError::NotFound { key })
            }
            Err(e) => {
                return Err(RegistryError::Io {
                    path,
                    message: e.to_string(),
                })
            }
        };
        let envelope = parse_envelope(&path, &text)?;
        let stored_key: String = field(&path, &envelope, "content_key")?;
        if stored_key != key {
            return Err(corrupt(
                &path,
                format!("stored content key {stored_key} does not match the model's {key}"),
            ));
        }
        let mut body: PlanBody = field(&path, &envelope, "plan")?;

        // The content key covers all three planning inputs, so any
        // disagreement means the envelope was edited after hashing.
        if body.params != probed.params
            || body.objective != probed.objective
            || body.candidate_forms != probed.forms
        {
            return Err(corrupt(
                &path,
                "planning inputs disagree with the content address".to_string(),
            ));
        }
        let Some(chosen) = body.candidates.get(body.chosen) else {
            return Err(corrupt(
                &path,
                format!(
                    "chosen index {} out of range ({} candidates)",
                    body.chosen,
                    body.candidates.len()
                ),
            ));
        };
        let composites = &body.chosen_composites;
        if composites.len() != chosen.forms.len() {
            return Err(corrupt(
                &path,
                format!(
                    "{} stored composites for {} chosen slots",
                    composites.len(),
                    chosen.forms.len()
                ),
            ));
        }
        // The planner installs each chosen form's composite unchanged,
        // so a stored composite is exactly its form's coefficients.
        for (i, (c, &f)) in composites.iter().zip(&chosen.forms).enumerate() {
            if *c != CompositePaf::from_form(f) {
                return Err(corrupt(
                    &path,
                    format!("slot {i} composite is not the chosen form {f}"),
                ));
            }
        }

        // Rebuild and validate: the stored schedule must replay on the
        // freshly probed model, trace for trace.
        let pipeline = probed.base.try_with_pafs(composites).map_err(|e| {
            corrupt(
                &path,
                format!("stored composites do not fit the model: {e}"),
            )
        })?;
        let trace = pipeline
            .trace(&probed.params, true)
            .map_err(|e| corrupt(&path, format!("stored plan no longer traces: {e}")))?;
        if trace != chosen.trace {
            return Err(corrupt(
                &path,
                "stored trace does not match a re-trace of the model".to_string(),
            ));
        }
        // The chosen row is rebuilt the way the planner built it, so
        // its cost, fidelity and price are checked, not trusted. The
        // other rows stay informational: checking them would re-trace
        // every candidate.
        if PlannedCandidate::traced_forms(&chosen.forms, trace, &body.params) != *chosen {
            return Err(corrupt(
                &path,
                "stored chosen candidate does not match the one its trace yields".to_string(),
            ));
        }
        // The artifact's count stays on disk; this process planned nothing.
        body.dry_runs = 0;
        Ok(Plan::assemble(pipeline, body, probed.seed))
    }

    /// Every `.json` file under the root with the outcome of vetting
    /// its envelope ([`parse_envelope`]), sorted by path. Unreadable
    /// files are skipped.
    fn scan(&self) -> Result<Vec<Vetted>, RegistryError> {
        let dir_err = |e: io::Error| RegistryError::Io {
            path: self.root.clone(),
            message: e.to_string(),
        };
        let mut files = Vec::new();
        for entry in fs::read_dir(&self.root).map_err(dir_err)? {
            let path = entry.map_err(dir_err)?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            let vetted = parse_envelope(&path, &text);
            files.push((path, vetted));
        }
        files.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(files)
    }

    /// Every readable artifact in the registry, sorted by content key.
    /// Files that are not well-formed plan artifacts are skipped (the
    /// registry is a cache; listing stays usable next to a corrupt
    /// entry — loading one reports the corruption instead).
    pub fn list(&self) -> Result<Vec<ArtifactInfo>, RegistryError> {
        let mut infos: Vec<ArtifactInfo> = self
            .scan()?
            .iter()
            .filter_map(|(path, vetted)| artifact_info(path, vetted.as_ref().ok()?))
            .collect();
        infos.sort_by(|a, b| a.content_key.cmp(&b.content_key));
        Ok(infos)
    }

    /// Evicts artifacts under a retention [`GcPolicy`], oldest first.
    ///
    /// Age is the artifact file's modification time; ties break on
    /// content key, so a sweep is deterministic even when a whole
    /// batch was published in the same instant. Only well-formed plan
    /// artifacts (what [`PlanRegistry::list`] reports) are the policy's
    /// candidates — foreign or corrupt files in the directory are never
    /// touched, for the same reason `list` skips them.
    ///
    /// Whatever the policy, every file carrying the plan-artifact
    /// marker with a `format_version` *below* [`FORMAT_VERSION`] is
    /// removed first: the version check is strict, so no current or
    /// later build can load it, and `list` cannot see it. These lead
    /// [`GcReport::removed`], by file stem (the content key they were
    /// saved under). Artifacts of a *newer* version are another
    /// binary's live data and stay.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the directory cannot be read, an
    /// artifact's metadata cannot be fetched, or a removal fails; a
    /// failed sweep may have removed a prefix of its victims (each
    /// removal is an independent `unlink`).
    pub fn gc(&self, policy: GcPolicy) -> Result<GcReport, RegistryError> {
        let io_err = |path: &Path, e: io::Error| RegistryError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        let mut removed = Vec::new();
        let mut aged: Vec<(std::time::SystemTime, ArtifactInfo)> = Vec::new();
        for (path, vetted) in self.scan()? {
            match vetted {
                Ok(envelope) => {
                    let Some(info) = artifact_info(&path, &envelope) else {
                        continue;
                    };
                    let mtime = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .map_err(|e| io_err(&path, e))?;
                    aged.push((mtime, info));
                }
                Err(RegistryError::VersionMismatch { found, .. })
                    if found < u64::from(FORMAT_VERSION) =>
                {
                    fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                    let stem = path.file_stem().unwrap_or_default();
                    removed.push(stem.to_string_lossy().into_owned());
                }
                Err(_) => {}
            }
        }
        aged.sort_by(|a, b| (a.0, &a.1.content_key).cmp(&(b.0, &b.1.content_key)));
        let victims: Vec<&ArtifactInfo> = match policy {
            GcPolicy::MaxArtifacts(keep) => aged
                .iter()
                .map(|(_, info)| info)
                .take(aged.len().saturating_sub(keep))
                .collect(),
            GcPolicy::MaxAge(age) => {
                let now = std::time::SystemTime::now();
                aged.iter()
                    .filter(|(mtime, _)| now.duration_since(*mtime).is_ok_and(|d| d > age))
                    .map(|(_, info)| info)
                    .collect()
            }
        };
        for info in &victims {
            fs::remove_file(&info.path).map_err(|e| io_err(&info.path, e))?;
            removed.push(info.content_key.clone());
        }
        Ok(GcReport {
            retained: aged.len() - victims.len(),
            removed,
        })
    }
}

/// The content address: a stable hash over everything planning depends
/// on — the form-independent model description, the CKKS parameters,
/// the objective, and the candidate form list. The serving seed is
/// deliberately excluded (it affects keys, never the plan).
fn content_key(
    desc: &PipelineDesc,
    params: &CkksParams,
    objective: &Objective,
    candidate_forms: &[PafForm],
) -> String {
    let v = Value::object([
        ("pipeline", desc.serialize()),
        ("params", params.serialize()),
        ("objective", objective.serialize()),
        ("candidate_forms", candidate_forms.serialize()),
    ]);
    format!("{:016x}", fnv1a_64(json::to_string(&v).as_bytes()))
}

fn parse(path: &Path, message: String) -> RegistryError {
    RegistryError::Parse {
        path: path.to_path_buf(),
        message,
    }
}

fn corrupt(path: &Path, message: String) -> RegistryError {
    RegistryError::Corrupt {
        path: path.to_path_buf(),
        message,
    }
}

/// Parses and vets the envelope: well-formed JSON, the
/// [`FORMAT_MARKER`], and a supported [`FORMAT_VERSION`].
fn parse_envelope(path: &Path, text: &str) -> Result<Value, RegistryError> {
    let v = json::from_str(text).map_err(|e| parse(path, e.to_string()))?;
    let marker: String = field(path, &v, "format")?;
    if marker != FORMAT_MARKER {
        return Err(parse(
            path,
            format!("not a smartpaf plan artifact (format `{marker}`)"),
        ));
    }
    let version: u64 = field(path, &v, "format_version")?;
    if version != u64::from(FORMAT_VERSION) {
        return Err(RegistryError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    Ok(v)
}

/// One typed field off an envelope object, with parse errors carrying
/// the artifact path.
fn field<T: Deserialize>(path: &Path, value: &Value, name: &str) -> Result<T, RegistryError> {
    value
        .req(name)
        .and_then(T::deserialize)
        .map_err(|e| parse(path, e.to_string()))
}

/// The listing row of a vetted envelope; `None` when its body is not
/// a plan body (such files are skipped by [`PlanRegistry::list`]).
fn artifact_info(path: &Path, envelope: &Value) -> Option<ArtifactInfo> {
    let body: PlanBody = field(path, envelope, "plan").ok()?;
    Some(ArtifactInfo {
        content_key: field(path, envelope, "content_key").ok()?,
        path: path.to_path_buf(),
        chosen_forms: body.candidates.get(body.chosen)?.forms.clone(),
        dry_runs: body.dry_runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use smartpaf_nn::Linear;
    use smartpaf_tensor::Rng64;

    /// A fresh per-test registry directory under the system temp dir.
    fn test_registry(name: &str) -> PlanRegistry {
        let dir =
            std::env::temp_dir().join(format!("smartpaf-registry-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        PlanRegistry::open(dir).expect("temp registry opens")
    }

    /// `blocks` affine→ReLU blocks over a flat 4-vector on the toy ring.
    fn builder(blocks: usize, layer_seed: u64) -> SessionBuilder {
        let mut rng = Rng64::new(layer_seed);
        let mut b = Session::builder(&[4]).params(CkksParams::toy());
        for _ in 0..blocks {
            b = b.affine(Linear::new(4, 4, &mut rng)).relu(2.0);
        }
        b
    }

    #[test]
    fn save_load_round_trips_the_plan() {
        let reg = test_registry("round-trip");
        let plan = builder(2, 5).plan().expect("plannable");
        let key = reg.save_plan(&plan).expect("saves");
        let loaded = reg.load_plan(builder(2, 5)).expect("loads");
        assert_eq!(loaded.chosen(), plan.chosen());
        assert_eq!(loaded.candidates(), plan.candidates());
        assert_eq!(loaded.frontier_indices(), plan.frontier_indices());
        assert_eq!(loaded.skipped_forms(), plan.skipped_forms());
        assert_eq!(loaded.candidate_forms(), plan.candidate_forms());
        assert_eq!(loaded.dry_runs_used(), 0, "loading spends no search");
        assert!(plan.dry_runs_used() > 0);
        // The artifact is listed under its content key.
        let infos = reg.list().expect("lists");
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].content_key, key);
        assert_eq!(infos[0].chosen_forms, plan.chosen().forms);
        assert_eq!(infos[0].dry_runs, plan.dry_runs_used());
    }

    #[test]
    fn degenerate_min_latency_drops_round_trip_under_one_key() {
        // The builder stores a min-latency drop normalised into [0, 1]:
        // NaN, -0.0 and negative drops as 0.0, drops above 1 as 1.0.
        // Every built-in form's fidelity lies in [0, 1], so a drop of
        // 1.0 admits every candidate as +∞ does and each class plans
        // alike. Each value plans, saves, loads and lists, and a class
        // shares one content key — a NaN drop used to be written as
        // `null` and never load, and -0.0 and 0.0 took two keys.
        use crate::session::fidelity;
        for form in PafForm::all() {
            let f = fidelity(&CompositePaf::from_form(form));
            assert!((0.0..=1.0).contains(&f), "{form}: {f}");
        }
        let reg = test_registry("degenerate-drops");
        let classes: [(&[f64], f64); 2] = [
            (&[0.0, -0.0, -1.0, f64::NEG_INFINITY, f64::NAN], 0.0),
            (&[1.0, 1.5, f64::INFINITY], 1.0),
        ];
        for (drops, normal) in classes {
            let mut keys = Vec::new();
            for &drop in drops {
                let planned = || {
                    let objective = Objective::MinLatency { max_acc_drop: drop };
                    builder(1, 7).objective(objective)
                };
                let plan = planned().plan().expect("plans");
                let Objective::MinLatency { max_acc_drop } = plan.objective() else {
                    panic!("objective kept its kind");
                };
                assert_eq!(max_acc_drop.to_bits(), normal.to_bits(), "drop {drop}");
                let key = reg.save_plan(&plan).expect("saves");
                let loaded = reg.load_plan(planned()).expect("loads");
                assert_eq!(loaded.objective(), plan.objective(), "drop {drop}");
                assert_eq!(loaded.chosen(), plan.chosen(), "drop {drop}");
                let listed = reg.list().expect("lists");
                assert!(listed.iter().any(|info| info.content_key == key));
                keys.push(key);
            }
            keys.dedup();
            assert_eq!(keys.len(), 1, "drops {drops:?}: {keys:?}");
        }
        assert_eq!(reg.list().expect("lists").len(), 2);
    }

    #[test]
    fn the_worked_example_artifact_is_pinned_byte_for_byte() {
        // The model of docs/ARTIFACT_FORMAT.md's worked example (and of
        // `registry_demo` at test scale). The whole file is hashed:
        // envelope, pipeline description and plan body, key order and
        // pretty-printing included.
        let reg = test_registry("worked-example");
        let mut rng = Rng64::new(41);
        let builder = Session::builder(&[4])
            .affine(Linear::new(4, 4, &mut rng))
            .relu(2.0)
            .affine(Linear::new(4, 4, &mut rng))
            .relu(2.0)
            .params(CkksParams::toy())
            .objective(Objective::MinBootstraps)
            .seed(41);
        let key = reg
            .save_plan(&builder.plan().expect("plannable"))
            .expect("saves");
        assert_eq!(key, "b25adf86415dd292");
        let text = fs::read_to_string(reg.artifact_path(&key)).unwrap();
        assert_eq!(fnv1a_64(text.as_bytes()), 0x2e35_b670_793e_17c4);
    }

    #[test]
    fn content_address_separates_planning_inputs() {
        let reg = test_registry("addressing");
        let a = builder(1, 5).plan().expect("plannable");
        let key_a = reg.save_plan(&a).expect("saves");
        // Different weights → different model → different key.
        let b = builder(1, 6).plan().expect("plannable");
        let key_b = reg.save_plan(&b).expect("saves");
        assert_ne!(key_a, key_b);
        // Different candidate list → different key, same model.
        let c = builder(1, 5)
            .candidates(&[PafForm::F1G2, PafForm::Alpha7])
            .plan()
            .expect("plannable");
        let key_c = reg.save_plan(&c).expect("saves");
        assert_ne!(key_a, key_c);
        // The serving seed is *not* part of the address.
        let d = builder(1, 5).seed(999).plan().expect("plannable");
        let key_d = reg.save_plan(&d).expect("saves");
        assert_eq!(key_a, key_d);
        assert_eq!(reg.list().expect("lists").len(), 3);
    }

    #[test]
    fn loading_a_missing_artifact_is_not_found() {
        let reg = test_registry("missing");
        let err = reg.load_plan(builder(1, 5)).expect_err("nothing saved");
        assert!(matches!(err, RegistryError::NotFound { .. }), "{err:?}");
    }

    #[test]
    fn malformed_and_foreign_envelopes_are_parse_errors() {
        let reg = test_registry("malformed");
        let plan = builder(1, 5).plan().expect("plannable");
        let key = reg.save_plan(&plan).expect("saves");
        let path = reg.artifact_path(&key);

        fs::write(&path, "{ not json").unwrap();
        let err = reg.load_plan(builder(1, 5)).expect_err("broken JSON");
        assert!(matches!(err, RegistryError::Parse { .. }), "{err:?}");

        fs::write(&path, r#"{"format":"something-else","format_version":1}"#).unwrap();
        let err = reg.load_plan(builder(1, 5)).expect_err("wrong marker");
        assert!(matches!(err, RegistryError::Parse { .. }), "{err:?}");
        assert!(err.to_string().contains("something-else"));

        // Broken artifacts are skipped by list(), not fatal to it.
        assert_eq!(reg.list().expect("lists").len(), 0);
    }

    #[test]
    fn every_plan_body_key_is_required_at_load_and_in_the_listing() {
        let reg = test_registry("body-keys");
        let key = reg
            .save_plan(&builder(1, 5).plan().expect("plannable"))
            .expect("saves");
        let path = reg.artifact_path(&key);
        let envelope = json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        let names = [
            "params",
            "objective",
            "candidate_forms",
            "candidates",
            "chosen",
            "chosen_composites",
            "skipped",
            "dry_runs",
        ];
        let Some(Value::Object(body)) = envelope.get("plan") else {
            panic!("a plan body is an object");
        };
        let keys: Vec<&str> = body.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, names);
        for name in names {
            let mut edited = envelope.clone();
            let Value::Object(body) = member(&mut edited, &["plan"]) else {
                unreachable!("checked above");
            };
            body.retain(|(k, _)| k != name);
            fs::write(&path, json::to_string_pretty(&edited)).unwrap();
            let err = reg.load_plan(builder(1, 5)).expect_err(name);
            assert!(
                matches!(&err, RegistryError::Parse { message, .. }
                    if message.contains(&format!("`{name}`"))),
                "{name}: {err:?}"
            );
            assert!(reg.list().expect("lists").is_empty(), "{name}");
        }
    }

    /// The artifact text with its `format_version` re-stamped.
    fn restamp(text: &str, version: u64) -> String {
        let current = format!("\"format_version\": {FORMAT_VERSION}");
        assert!(text.contains(&current));
        text.replace(&current, &format!("\"format_version\": {version}"))
    }

    #[test]
    fn future_format_versions_are_rejected() {
        let reg = test_registry("version");
        let plan = builder(1, 5).plan().expect("plannable");
        let key = reg.save_plan(&plan).expect("saves");
        let path = reg.artifact_path(&key);
        let text = fs::read_to_string(&path).unwrap();
        // What format 4 carried and format 5 dropped: a search budget in
        // the body and a model-only address in the envelope (its name in
        // two halves, so the tree greps clean of the deleted field).
        let key_line = format!("  \"content_key\": \"{key}\",\n");
        let objective_line = "    \"objective\": {\n";
        assert!(text.contains(&key_line) && text.contains(objective_line));
        let model_line = concat!("  \"model", "_key\": \"1e728094b6ece824\",\n");
        let v4_fields = text
            .replace(&key_line, &format!("{key_line}{model_line}"))
            .replace(
                objective_line,
                &format!("    \"budget\": {{ \"cap\": 96 }},\n{objective_line}"),
            );
        // Strict-exact: a later format and the previous ones alike —
        // format 5's stage records carry the one `level_in` the greedy
        // cut entered a stage at and no price.
        for found in [999, 5, 4, 3] {
            fs::write(&path, restamp(&v4_fields, found)).unwrap();
            let err = reg.load_plan(builder(1, 5)).expect_err("other version");
            assert_eq!(
                err,
                RegistryError::VersionMismatch {
                    found,
                    supported: FORMAT_VERSION
                }
            );
            assert!(err.to_string().contains(&format!("v{found}")));
        }
        // Only absent fields are errors: stamped 6, the two stray
        // fields are never read and the plan loads — and a format 5
        // stage record, whatever it is stamped, does not.
        fs::write(&path, &v4_fields).unwrap();
        let loaded = reg.load_plan(builder(1, 5)).expect("strays are ignored");
        assert_eq!(loaded.chosen(), plan.chosen());
        assert!(text.contains("\"op_levels\": ["));
        fs::write(&path, text.replace("\"op_levels\": [", "\"level_in\": [")).unwrap();
        let err = reg.load_plan(builder(1, 5)).expect_err("no op levels");
        assert!(
            !matches!(err, RegistryError::VersionMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn edited_envelopes_are_corrupt() {
        let reg = test_registry("tampered");
        let plan = builder(2, 5).plan().expect("plannable");
        let key = reg.save_plan(&plan).expect("saves");
        let path = reg.artifact_path(&key);
        // Rewriting the chain after hashing contradicts the address.
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"depth\": 12"));
        fs::write(&path, text.replace("\"depth\": 12", "\"depth\": 11")).unwrap();
        let err = reg.load_plan(builder(2, 5)).expect_err("edited body");
        assert!(matches!(err, RegistryError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("content address"));

        // A chosen composite's coefficients are its form's (f1's 1.5
        // rewritten to 2.5 is another PAF), and the chosen row's cost,
        // fidelity and price are what its trace yields.
        let envelope = json::from_str(&text).unwrap();
        let chosen: usize = field(&path, envelope.req("plan").unwrap(), "chosen").unwrap();
        let chosen = chosen.to_string();
        let row = ["plan", "candidates", &chosen];
        let cost = plan.chosen().cost;
        let edits: [(&[&str], Value, Value); 4] = [
            (
                &["plan", "chosen_composites", "0", "stages", "0", "1"],
                Value::Float(1.5),
                Value::Float(2.5),
            ),
            (
                &[&row[..], &["cost", "bootstraps"]].concat(),
                cost.bootstraps.serialize(),
                (cost.bootstraps + 1).serialize(),
            ),
            (
                &[&row[..], &["cost", "relu_levels"]].concat(),
                cost.relu_levels.serialize(),
                (cost.relu_levels + 10).serialize(),
            ),
            (
                &[&row[..], &["priced_ms"]].concat(),
                plan.chosen().priced_ms.serialize(),
                (plan.chosen().priced_ms * 2.0).serialize(),
            ),
        ];
        for (at, was, now) in edits {
            let mut edited = envelope.clone();
            let field = member(&mut edited, at);
            assert_eq!(*field, was, "{at:?}");
            *field = now;
            fs::write(&path, json::to_string_pretty(&edited)).unwrap();
            let err = reg
                .load_plan(builder(2, 5))
                .expect_err("edited chosen record");
            assert!(
                matches!(err, RegistryError::Corrupt { .. }),
                "{at:?}: {err:?}"
            );
        }
        // The untouched envelope still loads.
        fs::write(&path, &text).unwrap();
        assert_eq!(
            reg.load_plan(builder(2, 5)).expect("honest").chosen(),
            plan.chosen()
        );
    }

    /// The member of a parsed envelope at `at`: object keys, or array
    /// indices written as numbers.
    fn member<'a>(value: &'a mut Value, at: &[&str]) -> &'a mut Value {
        at.iter().fold(value, |v, key| match v {
            Value::Object(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1,
            Value::Array(items) => &mut items[key.parse::<usize>().expect(key)],
            other => panic!("no `{key}` in {other:?}"),
        })
    }

    /// Pins an artifact file's mtime to an exact instant.
    fn set_mtime(path: &Path, t: std::time::SystemTime) {
        fs::File::options()
            .append(true)
            .open(path)
            .unwrap()
            .set_modified(t)
            .unwrap();
    }

    /// Backdates an artifact's mtime by `secs` seconds.
    fn backdate(path: &Path, secs: u64) {
        let t = std::time::SystemTime::now() - std::time::Duration::from_secs(secs);
        set_mtime(path, t);
    }

    #[test]
    fn gc_max_artifacts_evicts_the_oldest_first() {
        let reg = test_registry("gc-count");
        let mut keys = Vec::new();
        for (i, seed) in [11u64, 12, 13].iter().enumerate() {
            let key = reg
                .save_plan(&builder(1, *seed).plan().expect("plannable"))
                .expect("saves");
            // Distinct, ordered ages: seed 11 oldest, seed 13 newest.
            backdate(&reg.artifact_path(&key), 3600 * (3 - i as u64));
            keys.push(key);
        }
        let report = reg.gc(GcPolicy::MaxArtifacts(1)).expect("sweeps");
        assert_eq!(report.removed, keys[..2], "oldest first, in order");
        assert_eq!(report.retained, 1);
        let left = reg.list().expect("lists");
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].content_key, keys[2], "the newest survives");

        // Under the cap, a sweep is a no-op.
        let report = reg.gc(GcPolicy::MaxArtifacts(5)).expect("sweeps");
        assert_eq!(
            report,
            GcReport {
                removed: vec![],
                retained: 1
            }
        );
    }

    #[test]
    fn gc_max_age_removes_only_stale_artifacts() {
        let reg = test_registry("gc-age");
        let stale = reg
            .save_plan(&builder(1, 11).plan().expect("plannable"))
            .expect("saves");
        backdate(&reg.artifact_path(&stale), 7200);
        let fresh = reg
            .save_plan(&builder(1, 12).plan().expect("plannable"))
            .expect("saves");

        let report = reg
            .gc(GcPolicy::MaxAge(std::time::Duration::from_secs(3600)))
            .expect("sweeps");
        assert_eq!(report.removed, vec![stale]);
        assert_eq!(report.retained, 1);
        assert_eq!(reg.list().expect("lists")[0].content_key, fresh);

        // Idempotent: nothing left past the age bound.
        let report = reg
            .gc(GcPolicy::MaxAge(std::time::Duration::from_secs(3600)))
            .expect("sweeps");
        assert!(report.removed.is_empty());
    }

    #[test]
    fn gc_ties_break_on_content_key_and_spare_foreign_files() {
        let reg = test_registry("gc-ties");
        // One shared mtime: ordering must fall back to the key.
        let t = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        let mut keys = Vec::new();
        for seed in [11u64, 12, 13] {
            let key = reg
                .save_plan(&builder(1, seed).plan().expect("plannable"))
                .expect("saves");
            set_mtime(&reg.artifact_path(&key), t);
            keys.push(key);
        }
        // A foreign file is not a gc candidate, whatever its age.
        let foreign = reg.root().join("notes.json");
        fs::write(&foreign, "{}").unwrap();
        backdate(&foreign, 720_000);

        let report = reg.gc(GcPolicy::MaxArtifacts(1)).expect("sweeps");
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(report.removed, sorted[..2], "equal mtimes order by key");
        assert_eq!(report.retained, 1);
        assert!(foreign.exists(), "gc never touches non-artifact files");

        // MaxArtifacts(0) empties the registry deterministically.
        let report = reg.gc(GcPolicy::MaxArtifacts(0)).expect("sweeps");
        assert_eq!(report.removed, vec![sorted[2].clone()]);
        assert_eq!(report.retained, 0);
        assert!(reg.list().expect("lists").is_empty());
    }

    #[test]
    fn gc_sweeps_superseded_format_versions_only() {
        let reg = test_registry("gc-versions");
        let live = reg
            .save_plan(&builder(1, 11).plan().expect("plannable"))
            .expect("saves");
        let old = reg
            .save_plan(&builder(1, 12).plan().expect("plannable"))
            .expect("saves");
        let old_path = reg.artifact_path(&old);
        let text = fs::read_to_string(&old_path).unwrap();
        // The previous format can never load again; a later one is
        // another binary's live data; unmarked JSON is not ours.
        fs::write(&old_path, restamp(&text, 5)).unwrap();
        let newer = reg.root().join("from-a-later-build.json");
        fs::write(&newer, restamp(&text, 999)).unwrap();
        let foreign = reg.root().join("notes.json");
        fs::write(&foreign, "{}").unwrap();
        assert_eq!(reg.list().expect("lists").len(), 1, "only v6 is listed");

        // Swept under a policy that would otherwise remove nothing.
        let report = reg.gc(GcPolicy::MaxArtifacts(5)).expect("sweeps");
        assert_eq!(report.removed, std::slice::from_ref(&old));
        assert_eq!(report.retained, 1);
        assert!(!old_path.exists());
        assert!(newer.exists() && foreign.exists());
        assert_eq!(reg.list().expect("lists")[0].content_key, live);

        // And under the other policy.
        fs::write(&old_path, restamp(&text, 5)).unwrap();
        let report = reg
            .gc(GcPolicy::MaxAge(std::time::Duration::from_secs(3600)))
            .expect("sweeps");
        assert_eq!(report.removed, [old]);
        assert!(!old_path.exists());
        assert!(newer.exists() && foreign.exists());
    }
}
