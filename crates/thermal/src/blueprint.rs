//! The blueprint layer: engine construction as an explicit, cacheable
//! **build → artifact → restore** pipeline.
//!
//! [`SolveContext`] construction used to interleave meshing, FVM assembly,
//! power painting and preconditioner factorization inside one private
//! constructor. [`EngineBlueprint`] splits that into phases with a stable
//! identity in the middle:
//!
//! 1. **Key** — the blueprint captures everything that determines the
//!    operator: the mesh, the painted conductivity field and the boundary
//!    set, folded into a [`content hash`](EngineBlueprint::content_hash)
//!    (bitwise over IEEE values — see
//!    [`ContentHasher`](vcsel_numerics::ContentHasher)).
//! 2. **Build** — [`EngineBlueprint::build`] runs the fresh path through
//!    the one assembly-and-painting site every engine shares (a
//!    [`TransientStepper`](crate::TransientStepper) builds there too, with
//!    its `C/Δt` on the diagonal): assembly, painting, one ladder
//!    factorization.
//! 3. **Artifact** — [`EngineBlueprint::engine_artifact`] writes the
//!    built engine's operator-derived state (operator + factor, or the
//!    whole multigrid hierarchy) as sections of one checksummed envelope.
//! 4. **Restore** — [`EngineBlueprint::restore`] rebuilds a full engine
//!    from those bytes with **zero factorizations**: the deserialized
//!    preconditioner goes straight onto the ladder's first rung via
//!    [`SolveLadder::with_prebuilt`], while powers are re-painted from the
//!    design (they are not part of the operator key).
//!
//! Restore never panics on hostile bytes: every failure — truncation,
//! checksum mismatch, version skew, a key collision caught by the content
//! hash, shape drift — surfaces as a typed [`RestoreError`] so the caller
//! (the `vcsel_core` engine cache) can fall back to [`EngineBlueprint::build`].

use std::sync::Arc;

use vcsel_numerics::{
    ArtifactError, ArtifactReader, ArtifactWriter, ContentHasher, NumericsError, Preconditioner,
    PreconditionerKind, SolveLadder, TripletBuilder,
};

use crate::assembly::{self, BoundaryFace};
use crate::context::{escalation_chain, paint_design, EngineParts};
use crate::{
    Boundary, BoundaryCondition, BoundarySet, Design, Mesh, MeshSpec, SolveContext, ThermalError,
};

/// Why an engine restore was rejected. Every variant is a
/// fall-back-to-fresh-build signal, never a panic; the engine cache logs
/// the value in its probe attempt log.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum RestoreError {
    /// The envelope or one of its sections failed decoding or
    /// revalidation (truncation, checksum mismatch, version skew,
    /// structural damage).
    Artifact(ArtifactError),
    /// The artifact's stored content hash disagrees with the blueprint's —
    /// a cache-key collision or stale entry for a different conductivity
    /// field / boundary set.
    ContentMismatch {
        /// Hash stored in the artifact.
        stored: u64,
        /// Hash this blueprint computed from its design and mesh.
        expected: u64,
    },
    /// Decoded state is internally consistent but does not fit this
    /// blueprint's mesh (cell counts, vector lengths, face indices).
    Shape {
        /// First violated expectation.
        reason: String,
    },
    /// A fresh-construction step that restore shares with the build path
    /// (power painting, ladder adoption) failed.
    Build(ThermalError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Artifact(e) => write!(f, "engine artifact rejected: {e}"),
            Self::ContentMismatch { stored, expected } => write!(
                f,
                "engine artifact content mismatch: stored {stored:#018x}, expected {expected:#018x}"
            ),
            Self::Shape { reason } => write!(f, "engine artifact shape mismatch: {reason}"),
            Self::Build(e) => write!(f, "engine restore fell over in a shared build step: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Artifact(e) => Some(e),
            Self::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArtifactError> for RestoreError {
    fn from(e: ArtifactError) -> Self {
        Self::Artifact(e)
    }
}

impl From<NumericsError> for RestoreError {
    fn from(e: NumericsError) -> Self {
        Self::Artifact(ArtifactError::from(e))
    }
}

impl From<ThermalError> for RestoreError {
    fn from(e: ThermalError) -> Self {
        Self::Build(e)
    }
}

fn shape(reason: String) -> RestoreError {
    RestoreError::Shape { reason }
}

/// A serializable description of how to construct one solve engine — the
/// `(design, mesh, preconditioner kind)` triple plus the content hash that
/// names the resulting operator. See the module-level docs above for the
/// build → artifact → restore pipeline.
#[derive(Debug, Clone)]
pub struct EngineBlueprint {
    design: Design,
    mesh: Mesh,
    kind: PreconditionerKind,
    /// Whether a rung-0 construction failure propagates (explicit kind)
    /// instead of degrading to a weaker rung (engine default).
    strict: bool,
    /// Painted per-cell conductivity — computed once here, shared by the
    /// content hash and the built engine's adopt-design fingerprint.
    conductivity: Vec<f64>,
    content_hash: u64,
}

impl EngineBlueprint {
    /// Meshes `design` per `spec` and captures the blueprint with the
    /// size-based default preconditioner
    /// ([`SolveContext::default_steady_kind`]).
    ///
    /// # Errors
    ///
    /// Propagates meshing failures ([`ThermalError::MeshTooLarge`],
    /// [`ThermalError::BadParameter`]).
    pub fn new(design: &Design, spec: &MeshSpec) -> Result<Self, ThermalError> {
        let mesh = Mesh::build(design, spec)?;
        Ok(Self::on_mesh(design, mesh))
    }

    /// Captures a blueprint on an already-built mesh (sweeps share one).
    pub fn on_mesh(design: &Design, mesh: Mesh) -> Self {
        let kind = SolveContext::default_steady_kind(mesh.cell_count());
        let conductivity = assembly::paint_conductivity(design, &mesh);
        let content_hash = fingerprint(&mesh, &conductivity, design.boundaries());
        Self { design: design.clone(), mesh, kind, strict: false, conductivity, content_hash }
    }

    /// Overrides the preconditioner kind (builder style). An explicit kind
    /// is *strict*: its construction failure propagates instead of
    /// degrading to a weaker rung, matching
    /// [`SolveContext::new_preconditioned`].
    #[must_use]
    pub fn with_kind(mut self, kind: PreconditionerKind) -> Self {
        self.kind = kind;
        self.strict = true;
        self
    }

    /// The operator content hash: mesh shape, the painted per-cell
    /// conductivity (bitwise IEEE), and the boundary set. Two blueprints
    /// share a hash iff they assemble the identical operator and boundary
    /// RHS — the invalidation contract the engine cache keys on.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// The preconditioner kind engines from this blueprint lead with.
    pub fn kind(&self) -> PreconditionerKind {
        self.kind
    }

    /// The blueprint's mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The fresh path: the one assembly-and-painting site every engine
    /// shares, on this blueprint's design, mesh and kind.
    /// [`SolveContext::new`] and [`SolveContext::new_preconditioned`]
    /// build through here.
    ///
    /// # Errors
    ///
    /// Propagates assembly failures ([`ThermalError::NoHeatPath`],
    /// [`ThermalError::BadParameter`]) and, for strict blueprints, the
    /// requested preconditioner's construction error.
    pub fn build(&self) -> Result<SolveContext, ThermalError> {
        let (engine, _) = assemble_engine(
            &self.design,
            self.mesh.clone(),
            self.kind,
            self.strict,
            None,
            self.conductivity.clone(),
        )?;
        Ok(engine)
    }

    /// Writes `ctx`'s operator-derived state — keyed by this blueprint's
    /// content hash — as one artifact envelope: the content hash, the
    /// cell count, the solver state
    /// ([`ArtifactWriter::put_solver_state`]: the multigrid hierarchy,
    /// whose finest level is the operator, or the operator plus its IC(0)
    /// factor), the boundary RHS and the boundary faces.
    ///
    /// Returns `None` when the engine is not in a cacheable state: its
    /// active preconditioner is not the blueprint's lead kind (the ladder
    /// escalated, or the non-cacheable Jacobi kind leads), or the
    /// preconditioner does not alias the engine's operator.
    pub fn engine_artifact(&self, ctx: &SolveContext) -> Option<Vec<u8>> {
        let n = self.mesh.cell_count();
        if ctx.shared_operator().rows() != n || ctx.preconditioner().name() != self.kind.name() {
            return None;
        }
        let mut w = ArtifactWriter::new();
        w.put_u64(self.content_hash);
        w.put_u64(n as u64);
        w.put_solver_state(ctx.shared_operator(), ctx.preconditioner())?;
        w.put_f64_slice(ctx.boundary_rhs_ref());
        let faces = ctx.boundary_faces_ref();
        w.put_u64(faces.len() as u64);
        for f in faces {
            w.put_u64(f.cell as u64);
            w.put_f64(f.conductance);
            w.put_f64(f.reference);
        }
        Some(w.finish())
    }

    /// Rebuilds a full engine from [`EngineBlueprint::engine_artifact`]
    /// bytes with **zero factorizations**: the operator and preconditioner
    /// deserialize (with full structural revalidation) onto the ladder's
    /// first rung, and only the cheap power painting runs fresh. The first
    /// solve of the restored engine is bitwise identical to a fresh
    /// build's.
    ///
    /// # Errors
    ///
    /// A typed [`RestoreError`] for every rejection: envelope or payload
    /// damage, a content-hash mismatch (key collision / stale entry),
    /// shape drift against this blueprint's mesh, or a failure in the
    /// shared fresh-construction steps.
    pub fn restore(&self, bytes: &[u8]) -> Result<SolveContext, RestoreError> {
        let mut r = ArtifactReader::open(bytes)?;
        let stored = r.get_u64()?;
        if stored != self.content_hash {
            return Err(RestoreError::ContentMismatch { stored, expected: self.content_hash });
        }
        let n = r.get_usize()?;
        if n != self.mesh.cell_count() {
            return Err(shape(format!(
                "artifact engine has {n} cells, blueprint mesh has {}",
                self.mesh.cell_count()
            )));
        }
        let (matrix, precond) = r.get_solver_state()?;
        if matrix.rows() != n {
            return Err(shape(format!(
                "restored operator has {} rows for a {n}-cell engine",
                matrix.rows()
            )));
        }
        let boundary_rhs = r.get_f64_slice()?;
        if boundary_rhs.len() != n {
            return Err(shape(format!(
                "restored boundary RHS has {} entries for {n} cells",
                boundary_rhs.len()
            )));
        }
        let face_count = r.get_usize()?;
        let mut boundary_faces = Vec::with_capacity(face_count.min(bytes.len() / 24));
        for _ in 0..face_count {
            let cell = r.get_usize()?;
            let conductance = r.get_f64()?;
            let reference = r.get_f64()?;
            if cell >= n || !conductance.is_finite() || !reference.is_finite() {
                return Err(shape(format!(
                    "restored boundary face is out of range (cell {cell}, g {conductance})"
                )));
            }
            boundary_faces.push(BoundaryFace { cell, conductance, reference });
        }
        r.expect_end()?;

        // Powers are not part of the operator key: re-paint them from the
        // design, exactly as the fresh path would.
        let powers = paint_design(&self.design, &self.mesh)?;
        // Zero factorizations: the deserialized preconditioner *is* rung 0.
        let ladder = SolveLadder::with_prebuilt(precond, &escalation_chain(self.kind))?;
        Ok(SolveContext::from_parts(EngineParts {
            mesh: self.mesh.clone(),
            matrix,
            boundary_rhs,
            boundary_faces,
            powers,
            conductivity: self.conductivity.clone(),
            boundaries: *self.design.boundaries(),
            ladder,
        }))
    }
}

/// The one assembly-and-painting site of every engine, steady or
/// transient: FVM assembly of a zero-power clone of `design` (the
/// conduction operator `A` and the pure boundary RHS — power only ever
/// moves the right-hand side), power painting, and one ladder
/// factorization leading with `kind`. A `strict` ladder propagates
/// `kind`'s construction error instead of opening on a weaker rung.
/// `conductivity` is the adopt-design fingerprint the engine keeps (empty
/// for a stepper). Given a transient step `dt_s`, it also paints the
/// per-cell `C/Δt` and factors `A + C/Δt` instead of `A`; that `C/Δt`
/// comes back next to the engine (empty for a steady engine).
pub(crate) fn assemble_engine(
    design: &Design,
    mesh: Mesh,
    kind: PreconditionerKind,
    strict: bool,
    dt_s: Option<f64>,
    conductivity: Vec<f64>,
) -> Result<(SolveContext, Vec<f64>), ThermalError> {
    let mut hollow = design.clone();
    for b in hollow.blocks_mut() {
        b.set_power(vcsel_units::Watts::ZERO);
    }
    let disc = assembly::assemble(&hollow, &mesh)?;
    let powers = paint_design(design, &mesh)?;
    let mut matrix = disc.matrix;
    let mut capacity_over_dt = Vec::new();
    if let Some(dt_s) = dt_s {
        capacity_over_dt = paint_capacity_over_dt(design, &mesh, dt_s);
        // A + C/Δt as a row-wise merge of the diagonal into A: no second
        // sort of A's entries, and the same bits as adding them one by one.
        let n = capacity_over_dt.len();
        let mut diagonal = TripletBuilder::with_capacity(n, n, n);
        for (row, &c_dt) in capacity_over_dt.iter().enumerate() {
            diagonal.add(row, row, c_dt);
        }
        matrix = matrix.add_scaled(&diagonal.build(), 1.0)?;
    }
    let matrix = Arc::new(matrix);
    let ladder = SolveLadder::new(&matrix, &escalation_chain(kind), strict)?;
    let engine = SolveContext::from_parts(EngineParts {
        mesh,
        matrix,
        boundary_rhs: disc.rhs,
        boundary_faces: disc.boundary_faces,
        powers,
        conductivity,
        boundaries: *design.boundaries(),
        ladder,
    });
    Ok((engine, capacity_over_dt))
}

/// Paints the per-cell heat capacity over the time step, `ρ·c_p·V/Δt` in
/// W/K.
fn paint_capacity_over_dt(design: &Design, mesh: &Mesh, dt_s: f64) -> Vec<f64> {
    let mut c = vec![design.background().volumetric_heat_capacity(); mesh.cell_count()];
    for block in design.blocks() {
        let cb = block.material().volumetric_heat_capacity();
        for idx in mesh.cells_in(block.region()) {
            c[idx] = cb;
        }
    }
    for (idx, cap) in c.iter_mut().enumerate() {
        *cap = *cap * mesh.cell_volume(idx) / dt_s;
    }
    c
}

/// The operator content hash: mesh shape and cell count, the painted
/// conductivity field (IEEE-bitwise), and the boundary set.
fn fingerprint(mesh: &Mesh, conductivity: &[f64], boundaries: &BoundarySet) -> u64 {
    let mut h = ContentHasher::new();
    let (nx, ny, nz) = mesh.shape();
    h.push_u64(nx as u64);
    h.push_u64(ny as u64);
    h.push_u64(nz as u64);
    h.push_u64(mesh.cell_count() as u64);
    for &k in conductivity {
        h.push_f64(k);
    }
    for face in Boundary::all() {
        match boundaries.get(face) {
            BoundaryCondition::Adiabatic => h.push_u8(0),
            BoundaryCondition::Convective { h: hc, ambient } => {
                h.push_u8(1);
                h.push_f64(hc.value());
                h.push_f64(ambient.value());
            }
            BoundaryCondition::Isothermal { temperature } => {
                h.push_u8(2);
                h.push_f64(temperature.value());
            }
        }
    }
    h.finish()
}
