// Problem-generator registry: genuine workloads that replace the synthetic
// stencil sweep with a real per-timestep update kernel over the existing
// ghost machinery.
//
// A generator defines an initial profile, a (time-independent) velocity
// field, and — for analytic scenarios — the exact reference solution. The
// per-stage update is first-order finite-volume upwind advection in FLUX
// FORM: every cell face gets one upwind numerical flux and the update is
// the divergence of those fluxes,
//
//   u -= dt * [ (Fx_hi - Fx_lo)/hx + (Fy_hi - Fy_lo)/hy + (Fz_hi - Fz_lo)/hz ]
//
// The kernel evaluates every face flux exactly once per stage and keeps it
// in rolling buffers — one plane of x-face fluxes, one row of y-face
// fluxes, one z-face scalar — so the low-face flux a cell subtracts is the
// very double its lower neighbour added as its high-face flux, and every
// interior face telescopes to zero exactly. The stored value is the one
// either cell would compute from their shared inputs, and the per-cell
// expression has one fixed evaluation order, so the result is bitwise that
// of evaluating all six faces per cell. Abutting same-level blocks evaluate
// their shared face at bitwise-identical coordinates (integer anchor
// arithmetic in GlobalStructure::box), so same-level block interfaces
// telescope too. At coarse-fine interfaces the two sides disagree; the
// kernel copies its six boundary planes of fluxes into a per-block
// FluxRegister and the drivers run a Berger–Colella reflux pass after each
// stage (DESIGN.md §18) so total mass is conserved to rounding there too.
//
// The registered generators are `final` and instantiate the kernel over
// their own inlined flux; any other subclass runs the same kernel over the
// virtual face_flux, with bit-identical results.
//
// The kernel is a pure function of (block data, block box, dt): identical
// across variants, decompositions and transports by construction, so the
// cross-variant bit-identity guarantees of the synthetic stencil carry
// over. dt is CFL-stable against the finest cell the run could ever create
// (a deterministic function of the Config alone); generators whose speed is
// the advected field itself (cfl_from_field) have dt recomputed from the
// allreduced live field max each timestep instead.
//
// Every variable carries the same advected field: the update is uniform
// over the variable-group loop exactly like the synthetic stencil, so the
// drivers' staging/tasking structure is unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "amr/block.hpp"
#include "amr/config.hpp"
#include "common/geometry.hpp"

namespace dfamr::amr {
class FluxRegister;
}

namespace dfamr::scenario {

class ProblemGenerator {
public:
    virtual ~ProblemGenerator() = default;
    virtual const char* name() const = 0;
    /// Upper bound on the velocity magnitude anywhere in the unit cube —
    /// the CFL bound stable_dt() divides by.
    virtual double max_speed() const = 0;
    /// Initial profile at physical position p.
    virtual double initial(const Vec3d& p) const = 0;
    /// Velocity at position p given the local value u (time-independent;
    /// only the shock-front scenario uses u).
    virtual Vec3d velocity(const Vec3d& p, double u) const = 0;
    /// Upwind numerical flux through a face orthogonal to `axis` at position
    /// p, with left (lower-coordinate) and right cell states ul / ur. The
    /// default upwinds on the face velocity evaluated at the state average;
    /// nonlinear scenarios (Burgers front) override with a Godunov flux.
    virtual double face_flux(int axis, const Vec3d& p, double ul, double ur) const;
    /// True when the CFL speed is the advected field itself, so dt must be
    /// recomputed from the live field max each timestep (the drivers
    /// allreduce the max, keeping dt identical on every rank).
    virtual bool cfl_from_field() const { return false; }
    /// Analytic solution at (p, t); only meaningful when has_reference().
    virtual bool has_reference() const { return false; }
    virtual double reference(const Vec3d& p, double t) const;

    /// Fills every variable's interior cells from the initial profile.
    void init_block(amr::Block& blk, const Box& box) const;
    /// One flux-form upwind advection step of dt over [var_begin, var_end).
    /// Records the block's six boundary-plane fluxes into `reg` when given
    /// (the drivers' reflux pass consumes them; tests may pass null).
    /// Returns the FLOPs done (throughput bookkeeping, like apply_stencil).
    /// Thread-safe: hybrid variants call it from worker threads.
    std::int64_t advance(amr::Block& blk, const Box& box, int var_begin, int var_end, double dt,
                         amr::FluxRegister* reg = nullptr) const {
        return advance_block(blk, box, var_begin, var_end, dt, reg);
    }
    /// CFL-stable step against the finest possible cell of `cfg`.
    double stable_dt(const amr::Config& cfg) const;
    /// Same CFL bound for an externally supplied speed (the live field max
    /// when cfl_from_field()).
    double dt_for_speed(const amr::Config& cfg, double speed) const;

private:
    /// The kernel instantiation behind advance(). The default runs it over
    /// the virtual face_flux; the registered generators override it with
    /// the kernel instantiated over their own devirtualised flux.
    virtual std::int64_t advance_block(amr::Block& blk, const Box& box, int var_begin,
                                       int var_end, double dt, amr::FluxRegister* reg) const;
};

/// Registry lookup by CLI name: "gaussian", "slotted_cylinder" or "front".
/// Returns null for unknown names ("synthetic" is not in the registry —
/// it selects the legacy stencil sweep and is handled by the caller).
const ProblemGenerator* find_generator(const std::string& name);

/// Registered generator names, for error messages and help text.
std::vector<std::string> generator_names();

}  // namespace dfamr::scenario
