#include "scenario/problem_generator.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "amr/flux_register.hpp"
#include "amr/scratch.hpp"
#include "common/error.hpp"

namespace dfamr::scenario {

namespace {

/// CFL number for the 3D upwind update: dt * sum_axis |v_axis| / h must
/// stay below 1; with per-axis speeds bounded by max_speed() this keeps the
/// three-term sum at or under 3 * kCfl.
constexpr double kCfl = 0.2;

/// Upwind choice of the default face flux for face velocity v.
double upwind(double v, double ul, double ur) { return v >= 0.0 ? v * ul : v * ur; }

/// Face and centre coordinates along one axis of n cells of width h:
/// faces[i] for i in 0..n, centres[i] for i in 1..n (centres[0] unused).
/// The two boundary faces take the box bounds verbatim: abutting blocks
/// derive those from the same integer anchor arithmetic
/// (GlobalStructure::box), so both sides of a same-level interface
/// evaluate the flux at bitwise-identical positions.
void axis_coords(double lo, double hi, double h, int n, double* faces, double* centres) {
    faces[0] = lo;
    for (int i = 1; i < n; ++i) faces[i] = lo + i * h;
    faces[n] = hi;
    for (int i = 1; i <= n; ++i) centres[i] = lo + (i - 0.5) * h;
}

/// The flux-form advance over `flux(axis, p, ul, ur)`. Each face flux is
/// evaluated once: sweeping x, then y, then z, the high-face flux of a cell
/// is stored and becomes the low-face flux of the next cell along that
/// axis — a plane of x-face fluxes, a row of y-face fluxes and a z-face
/// scalar. The update runs in place: a cell's fluxes read only itself and
/// its not-yet-updated upper neighbours, and its lower faces are already
/// stored. The per-cell expression and its evaluation order are those of a
/// kernel that computes all six faces per cell, so results are bitwise the
/// same. Boundary planes go to `reg` as each one completes.
template <class Flux>
std::int64_t advance_kernel(const Flux& flux, amr::Block& blk, const Box& box, int var_begin,
                            int var_end, double dt, amr::FluxRegister* reg) {
    const amr::BlockShape& s = blk.shape();
    const int nx = s.nx, ny = s.ny, nz = s.nz;
    const Vec3d ext = box.extent();
    const double hx = ext.x / nx, hy = ext.y / ny, hz = ext.z / nz;
    const std::int64_t sx = s.stride_x(), sy = s.stride_y();
    const std::size_t plane = static_cast<std::size_t>(ny) * nz;
    std::vector<double>& scratch = amr::tls_scratch(plane + nz + 2 * (nx + ny + nz + 3));
    double* const fx = scratch.data();  // x-face fluxes, [y][z]
    double* const fy = fx + plane;      // y-face fluxes, [z]
    double* const xf = fy + nz;
    double* const xc = xf + nx + 1;
    double* const yf = xc + nx + 1;
    double* const yc = yf + ny + 1;
    double* const zf = yc + ny + 1;
    double* const zc = zf + nz + 1;
    axis_coords(box.lo.x, box.hi.x, hx, nx, xf, xc);
    axis_coords(box.lo.y, box.hi.y, hy, ny, yf, yc);
    axis_coords(box.lo.z, box.hi.z, hz, nz, zf, zc);

    for (int v = var_begin; v < var_end; ++v) {
        double* const var = blk.data() + v * s.stride_var();
        for (int y = 1; y <= ny; ++y) {
            const double* const row = var + y * sy;
            double* const fxr = fx + static_cast<std::size_t>(y - 1) * nz;
            for (int z = 1; z <= nz; ++z) {
                fxr[z - 1] = flux(0, Vec3d{xf[0], yc[y], zc[z]}, row[z], row[sx + z]);
            }
        }
        if (reg != nullptr) std::copy_n(fx, plane, reg->face(0, -1, v).data());
        for (int x = 1; x <= nx; ++x) {
            double* const pl = var + x * sx;
            for (int z = 1; z <= nz; ++z) {
                fy[z - 1] = flux(1, Vec3d{xc[x], yf[0], zc[z]}, pl[z], pl[sy + z]);
            }
            if (reg != nullptr) std::copy_n(fy, nz, reg->face(1, -1, v).data() + (x - 1) * nz);
            for (int y = 1; y <= ny; ++y) {
                double* const row = pl + y * sy;
                double* const fxr = fx + static_cast<std::size_t>(y - 1) * nz;
                double fzl = flux(2, Vec3d{xc[x], yc[y], zf[0]}, row[0], row[1]);
                if (reg != nullptr) reg->at(2, -1, v, x, y) = fzl;
                for (int z = 1; z <= nz; ++z) {
                    const double u = row[z];
                    const double fxl = fxr[z - 1];
                    const double fyl = fy[z - 1];
                    const double fxh = flux(0, Vec3d{xf[x], yc[y], zc[z]}, u, row[sx + z]);
                    const double fyh = flux(1, Vec3d{xc[x], yf[y], zc[z]}, u, row[sy + z]);
                    const double fzh = flux(2, Vec3d{xc[x], yc[y], zf[z]}, u, row[z + 1]);
                    row[z] = u - dt * ((fxh - fxl) / hx + (fyh - fyl) / hy + (fzh - fzl) / hz);
                    fxr[z - 1] = fxh;
                    fy[z - 1] = fyh;
                    fzl = fzh;
                }
                if (reg != nullptr) reg->at(2, +1, v, x, y) = fzl;
            }
            if (reg != nullptr) std::copy_n(fy, nz, reg->face(1, +1, v).data() + (x - 1) * nz);
        }
        if (reg != nullptr) std::copy_n(fx, plane, reg->face(0, +1, v).data());
    }
    // Bookkeeping like apply_stencil: ~19 floating-point operations per cell
    // (three upwind fluxes plus the three-term divergence).
    return 19 * static_cast<std::int64_t>(nx) * ny * nz * (var_end - var_begin);
}

/// True when G overrides face_flux: `&G::face_flux` then names a member of
/// G rather than of ProblemGenerator.
template <class G>
constexpr bool overrides_face_flux =
    !std::is_same_v<decltype(&G::face_flux), decltype(&ProblemGenerator::face_flux)>;

/// Base of the registered (final) generators: runs the kernel over
/// Derived's own flux — its face_flux override, or the default upwind flux
/// on its velocity. The qualified calls are direct, so the compiler inlines
/// the flux into the kernel instead of making virtual calls per face.
template <class Derived>
class InlinedAdvance : public ProblemGenerator {
    std::int64_t advance_block(amr::Block& blk, const Box& box, int var_begin, int var_end,
                               double dt, amr::FluxRegister* reg) const override {
        const auto& self = static_cast<const Derived&>(*this);
        const auto flux = [&self](int axis, const Vec3d& p, double ul, double ur) {
            if constexpr (overrides_face_flux<Derived>) {
                return self.Derived::face_flux(axis, p, ul, ur);
            } else {
                return upwind(self.Derived::velocity(p, 0.5 * (ul + ur))[axis], ul, ur);
            }
        };
        return advance_kernel(flux, blk, box, var_begin, var_end, dt, reg);
    }
};

/// Advected Gaussian pulse: the classic smooth-transport benchmark. The
/// pulse starts near a lower corner and drifts diagonally; velocities and
/// run lengths keep it away from the reflective domain boundary.
class GaussianPulse final : public InlinedAdvance<GaussianPulse> {
public:
    const char* name() const override { return "gaussian"; }
    double max_speed() const override { return 0.4; }  // largest component
    double initial(const Vec3d& p) const override { return reference(p, 0.0); }
    Vec3d velocity(const Vec3d&, double) const override { return {0.4, 0.3, 0.2}; }
    bool has_reference() const override { return true; }
    double reference(const Vec3d& p, double t) const override {
        constexpr double kSigma = 0.1;
        const Vec3d c{0.3 + 0.4 * t, 0.3 + 0.3 * t, 0.3 + 0.2 * t};
        const double dx = p.x - c.x, dy = p.y - c.y, dz = p.z - c.z;
        const double r2 = dx * dx + dy * dy + dz * dz;
        return std::exp(-r2 / (2.0 * kSigma * kSigma));
    }
};

/// Zalesak-style slotted cylinder in solid-body rotation about the domain
/// center (z-invariant): a discontinuous profile that stresses the
/// estimators and the coarse-fine transfer operators. Exactly returns to
/// its initial position every full turn.
class SlottedCylinder final : public InlinedAdvance<SlottedCylinder> {
public:
    const char* name() const override { return "slotted_cylinder"; }
    double max_speed() const override { return 0.5; }  // omega * max |p - center|
    double initial(const Vec3d& p) const override { return profile(p.x, p.y); }
    Vec3d velocity(const Vec3d& p, double) const override {
        return {-(p.y - 0.5), p.x - 0.5, 0.0};  // omega = 1
    }
    bool has_reference() const override { return true; }
    double reference(const Vec3d& p, double t) const override {
        // Rotate the sample point backwards by omega * t around the center.
        const double c = std::cos(t), s = std::sin(t);
        const double x = p.x - 0.5, y = p.y - 0.5;
        return profile(0.5 + c * x + s * y, 0.5 - s * x + c * y);
    }

private:
    static double profile(double x, double y) {
        const double dx = x - 0.5, dy = y - 0.75;
        if (dx * dx + dy * dy > 0.15 * 0.15) return 0.0;
        if (std::abs(dx) < 0.025 && y < 0.85) return 0.0;  // the slot
        return 1.0;
    }
};

/// Steepening shock-like front: the inviscid Burgers equation u_t + u u_x =
/// 0 with a positive tanh ramp. Faster fluid behind catches slower fluid
/// ahead and the ramp steepens into a moving shock — no closed-form
/// reference after shock formation, so has_reference() is false.
class SteepeningFront final : public InlinedAdvance<SteepeningFront> {
public:
    const char* name() const override { return "front"; }
    double max_speed() const override { return 1.2; }  // initial max u (a priori bound)
    /// The wave speed IS the field: reflux corrections and refinement can
    /// nudge the local max, so dt is recomputed from the live field each
    /// timestep rather than frozen at the initial bound.
    bool cfl_from_field() const override { return true; }
    double initial(const Vec3d& p) const override {
        return 0.8 + 0.4 * std::tanh((0.35 - p.x) / 0.08);
    }
    Vec3d velocity(const Vec3d&, double u) const override { return {u, 0.0, 0.0}; }
    /// Godunov flux for f(u) = u^2/2 along x; the transverse axes carry
    /// nothing. Exact for the convex Burgers flux, including transonic
    /// rarefactions (the ul <= 0 <= ur case).
    double face_flux(int axis, const Vec3d&, double ul, double ur) const override {
        if (axis != 0) return 0.0;
        const double fl = 0.5 * ul * ul;
        const double fr = 0.5 * ur * ur;
        if (ul <= ur) {
            if (ul <= 0.0 && 0.0 <= ur) return 0.0;
            return std::min(fl, fr);
        }
        return std::max(fl, fr);
    }
};

const GaussianPulse g_gaussian;
const SlottedCylinder g_slotted;
const SteepeningFront g_front;
const ProblemGenerator* const g_generators[] = {&g_gaussian, &g_slotted, &g_front};

}  // namespace

double ProblemGenerator::reference(const Vec3d&, double) const {
    throw Error(std::string("scenario '") + name() + "' has no analytic reference");
}

double ProblemGenerator::face_flux(int axis, const Vec3d& p, double ul, double ur) const {
    return upwind(velocity(p, 0.5 * (ul + ur))[axis], ul, ur);
}

void ProblemGenerator::init_block(amr::Block& blk, const Box& box) const {
    const amr::BlockShape& s = blk.shape();
    const Vec3d ext = box.extent();
    const Vec3d h{ext.x / s.nx, ext.y / s.ny, ext.z / s.nz};
    for (int v = 0; v < s.num_vars; ++v) {
        for (int x = 1; x <= s.nx; ++x) {
            for (int y = 1; y <= s.ny; ++y) {
                for (int z = 1; z <= s.nz; ++z) {
                    const Vec3d pos{box.lo.x + (x - 0.5) * h.x, box.lo.y + (y - 0.5) * h.y,
                                    box.lo.z + (z - 0.5) * h.z};
                    blk.at(v, x, y, z) = initial(pos);
                }
            }
        }
    }
}

std::int64_t ProblemGenerator::advance_block(amr::Block& blk, const Box& box, int var_begin,
                                             int var_end, double dt,
                                             amr::FluxRegister* reg) const {
    const auto flux = [this](int axis, const Vec3d& p, double ul, double ur) {
        return face_flux(axis, p, ul, ur);
    };
    return advance_kernel(flux, blk, box, var_begin, var_end, dt, reg);
}

double ProblemGenerator::stable_dt(const amr::Config& cfg) const {
    return dt_for_speed(cfg, max_speed());
}

double ProblemGenerator::dt_for_speed(const amr::Config& cfg, double speed) const {
    // Finest cell any run of this config can create: level-0 blocks per
    // dimension, each splittable num_refine times, nx/ny/nz cells per block.
    const double side = static_cast<double>(std::int64_t{1} << cfg.num_refine);
    const double fx = cfg.npx * cfg.init_x * side * cfg.nx;
    const double fy = cfg.npy * cfg.init_y * side * cfg.ny;
    const double fz = cfg.npz * cfg.init_z * side * cfg.nz;
    const double h_min = std::min({1.0 / fx, 1.0 / fy, 1.0 / fz});
    return kCfl * h_min / speed;
}

const ProblemGenerator* find_generator(const std::string& name) {
    for (const ProblemGenerator* g : g_generators) {
        if (name == g->name()) return g;
    }
    return nullptr;
}

std::vector<std::string> generator_names() {
    std::vector<std::string> names;
    for (const ProblemGenerator* g : g_generators) names.emplace_back(g->name());
    return names;
}

}  // namespace dfamr::scenario
