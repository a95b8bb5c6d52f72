#include "amr/block.hpp"

#include <cmath>

#include "amr/scratch.hpp"
#include "common/error.hpp"

namespace dfamr::amr {

namespace {

/// Deterministic cell field: hash of the quantized physical position and the
/// variable index, mapped to [1, 2). Identical across variants and
/// decompositions by construction.
double field_value(int var, const Vec3d& pos, std::uint64_t seed) {
    auto mix = [](std::uint64_t x) {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    };
    constexpr double kScale = 1 << 20;
    std::uint64_t h = seed;
    h = mix(h ^ static_cast<std::uint64_t>(var));
    h = mix(h ^ static_cast<std::uint64_t>(std::llround(pos.x * kScale)));
    h = mix(h ^ static_cast<std::uint64_t>(std::llround(pos.y * kScale)));
    h = mix(h ^ static_cast<std::uint64_t>(std::llround(pos.z * kScale)));
    return 1.0 + static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

BlockKey BlockKey::child(int octant, int max_level) const {
    DFAMR_ASSERT(level < max_level && octant >= 0 && octant < 8);
    const std::int64_t half = side(max_level) / 2;
    BlockKey c;
    c.level = level + 1;
    c.anchor = {anchor.x + ((octant & 1) ? half : 0), anchor.y + ((octant & 2) ? half : 0),
                anchor.z + ((octant & 4) ? half : 0)};
    return c;
}

BlockKey BlockKey::parent(int max_level) const {
    DFAMR_ASSERT(level > 0);
    const std::int64_t parent_side = side(max_level) * 2;
    BlockKey p;
    p.level = level - 1;
    p.anchor = {(anchor.x / parent_side) * parent_side, (anchor.y / parent_side) * parent_side,
                (anchor.z / parent_side) * parent_side};
    return p;
}

int BlockKey::octant_in_parent(int max_level) const {
    const std::int64_t s = side(max_level);
    const BlockKey p = parent(max_level);
    int o = 0;
    if (anchor.x - p.anchor.x >= s) o |= 1;
    if (anchor.y - p.anchor.y >= s) o |= 2;
    if (anchor.z - p.anchor.z >= s) o |= 4;
    return o;
}

Block::Block(BlockKey key, const BlockShape& shape)
    : key_(key), shape_(shape), data_(static_cast<std::size_t>(shape.total_cells()), 0.0) {
    DFAMR_REQUIRE(shape.nx > 0 && shape.ny > 0 && shape.nz > 0 && shape.num_vars > 0,
                  "invalid block shape");
}

std::span<double> Block::group_span(int var_begin, int var_end) {
    return {data_.data() + var_begin * shape_.stride_var(),
            static_cast<std::size_t>((var_end - var_begin) * shape_.stride_var())};
}
std::span<const double> Block::group_span(int var_begin, int var_end) const {
    return {data_.data() + var_begin * shape_.stride_var(),
            static_cast<std::size_t>((var_end - var_begin) * shape_.stride_var())};
}

void Block::init_cells(const Box& box, std::uint64_t seed) {
    const Vec3d ext = box.extent();
    const Vec3d cell{ext.x / shape_.nx, ext.y / shape_.ny, ext.z / shape_.nz};
    for (int v = 0; v < shape_.num_vars; ++v) {
        for (int x = 1; x <= shape_.nx; ++x) {
            for (int y = 1; y <= shape_.ny; ++y) {
                for (int z = 1; z <= shape_.nz; ++z) {
                    const Vec3d pos{box.lo.x + (x - 0.5) * cell.x, box.lo.y + (y - 0.5) * cell.y,
                                    box.lo.z + (z - 0.5) * cell.z};
                    at(v, x, y, z) = field_value(v, pos, seed);
                }
            }
        }
    }
}

std::int64_t Block::face_value_count(const FaceGeom& g, int vars) const {
    return g.rel == FaceRel::Same ? shape_.face_values_same(g.axis, vars)
                                  : shape_.face_values_mixed(g.axis, vars);
}

namespace {
/// A U × V face plane in strided storage, for one or more variables: value
/// (w, u, v) — variable w, in-plane cell (u, v) — lives at
/// base[w·sw + u·su + v·sv]. (u, v) are the plane's axes in ascending
/// order, so a block's x- and y-faces have sv == 1 and only z-faces are
/// strided in v. A face message is a dense plane: sv == 1, su = V.
template <class T>
struct Plane {
    T* base;
    std::int64_t su, sv, sw;
    int U, V;

    /// Quarter `quad` of the plane (u-half in bit 0, v-half in bit 1).
    Plane quarter(int quad) const {
        return {base + (quad & 1) * (U / 2) * su + ((quad >> 1) & 1) * (V / 2) * sv,
                su, sv, sw, U / 2, V / 2};
    }
};

/// How a transfer maps source cells onto each destination cell (u, v).
enum class Op {
    Copy,      // src(u, v)
    Restrict,  // mean of src's 2×2 cells (2u..2u+1, 2v..2v+1)
    Prolong,   // src(u / 2, v / 2)
};

/// Writes all of `dst` from `src` for `vars` variables: the one kernel
/// behind pack, unpack, copy and reflect.
template <Op op>
void transfer(Plane<double> dst, Plane<const double> src, int vars) {
    const std::int64_t dv = dst.sv, sv = src.sv;
    for (int w = 0; w < vars; ++w) {
        double* const dvar = dst.base + w * dst.sw;
        const double* const svar = src.base + w * src.sw;
        if constexpr (op == Op::Copy) {
            for (int u = 0; u < dst.U; ++u) {
                double* d = dvar + u * dst.su;
                const double* s = svar + u * src.su;
                for (int v = 0; v < dst.V; ++v) d[v * dv] = s[v * sv];
            }
        } else if constexpr (op == Op::Restrict) {
            for (int u = 0; u < dst.U; ++u) {
                double* d = dvar + u * dst.su;
                const double* s0 = svar + 2 * u * src.su;
                const double* s1 = s0 + src.su;
                for (int v = 0; v < dst.V; ++v) {
                    // Fixed order, starting from 0 (so -0.0 sums to +0.0):
                    // any other order rounds differently and would change
                    // every golden checksum.
                    double sum = 0;
                    sum += s0[2 * v * sv];
                    sum += s0[(2 * v + 1) * sv];
                    sum += s1[2 * v * sv];
                    sum += s1[(2 * v + 1) * sv];
                    d[v * dv] = 0.25 * sum;
                }
            }
        } else {  // Prolong: each source cell fills a 2×2 patch (U, V even)
            for (int u = 0; u < dst.U; u += 2) {
                double* d0 = dvar + u * dst.su;
                double* d1 = d0 + dst.su;
                const double* s = svar + (u / 2) * src.su;
                for (int v = 0; v < dst.V; v += 2) {
                    const double x = s[(v / 2) * sv];
                    d0[v * dv] = x;
                    d0[(v + 1) * dv] = x;
                    d1[v * dv] = x;
                    d1[(v + 1) * dv] = x;
                }
            }
        }
    }
}

/// A block's outermost interior plane (Boundary) or the ghost plane beyond
/// it (Ghost) on side `sense` of `axis`, from variable `var_begin` on.
enum class Layer { Boundary, Ghost };

template <class T>
Plane<T> face_plane(T* data, const BlockShape& s, int axis, int sense, Layer layer,
                    int var_begin) {
    const int ghost = layer == Layer::Ghost ? 1 : 0;
    const int a = sense > 0 ? s.dim(axis) + ghost : 1 - ghost;
    const std::int64_t stride[3] = {s.stride_x(), s.stride_y(), s.stride_z()};
    const auto [ua, va] = s.plane_axes(axis);
    return {data + var_begin * s.stride_var() + a * stride[axis] + stride[ua] + stride[va],
            stride[ua], stride[va], s.stride_var(), s.dim(ua), s.dim(va)};
}

/// A dense face message shaped like `face`.
template <class T, class S>
Plane<T> message(T* data, const Plane<S>& face) {
    return {data, face.V, 1, static_cast<std::int64_t>(face.U) * face.V, face.U, face.V};
}
}  // namespace

void Block::pack_face(const FaceGeom& g, int var_begin, int var_end, std::span<double> out) const {
    DFAMR_REQUIRE(static_cast<std::int64_t>(out.size()) == face_value_count(g, var_end - var_begin),
                  "pack_face: wrong buffer size");
    const int vars = var_end - var_begin;
    const auto face = face_plane(data(), shape_, g.axis, g.sense, Layer::Boundary, var_begin);
    switch (g.rel) {
        case FaceRel::Same:
            transfer<Op::Copy>(message(out.data(), face), face, vars);
            break;
        case FaceRel::Coarser:  // receiver coarser: restrict my whole face
            transfer<Op::Restrict>(message(out.data(), face.quarter(0)), face, vars);
            break;
        case FaceRel::Finer:  // receiver finer: send quarter `quad` raw
            transfer<Op::Copy>(message(out.data(), face.quarter(0)), face.quarter(g.quad), vars);
            break;
    }
}

void Block::unpack_face(const FaceGeom& g, int var_begin, int var_end,
                        std::span<const double> in) {
    DFAMR_REQUIRE(static_cast<std::int64_t>(in.size()) == face_value_count(g, var_end - var_begin),
                  "unpack_face: wrong buffer size");
    const int vars = var_end - var_begin;
    const auto ghost = face_plane(data(), shape_, g.axis, g.sense, Layer::Ghost, var_begin);
    switch (g.rel) {
        case FaceRel::Same:
            transfer<Op::Copy>(ghost, message(in.data(), ghost), vars);
            break;
        case FaceRel::Coarser:  // sender coarser: prolong onto my ghosts
            transfer<Op::Prolong>(ghost, message(in.data(), ghost.quarter(0)), vars);
            break;
        case FaceRel::Finer:  // sender finer: place into quarter `quad`
            transfer<Op::Copy>(ghost.quarter(g.quad), message(in.data(), ghost.quarter(0)), vars);
            break;
    }
}

void Block::copy_face_from(const Block& src, const FaceGeom& g, int var_begin, int var_end) {
    // `g` is my view: rel = the neighbor's level vs mine, sense = the side
    // of me the neighbor is on, so I read the neighbor's opposite boundary
    // plane. `quad` names the quarter of the coarser side's face.
    const int vars = var_end - var_begin;
    const auto ghost = face_plane(data(), shape_, g.axis, g.sense, Layer::Ghost, var_begin);
    const auto face =
        face_plane(src.data(), src.shape_, g.axis, -g.sense, Layer::Boundary, var_begin);
    switch (g.rel) {
        case FaceRel::Same:
            transfer<Op::Copy>(ghost, face, vars);
            break;
        case FaceRel::Coarser:  // prolong the neighbor's quarter onto my whole ghost plane
            transfer<Op::Prolong>(ghost, face.quarter(g.quad), vars);
            break;
        case FaceRel::Finer:  // restrict the neighbor's whole face into my quarter
            transfer<Op::Restrict>(ghost.quarter(g.quad), face, vars);
            break;
    }
}

void Block::reflect_face(int axis, int sense, int var_begin, int var_end) {
    const double* self = data();
    transfer<Op::Copy>(face_plane(data(), shape_, axis, sense, Layer::Ghost, var_begin),
                       face_plane(self, shape_, axis, sense, Layer::Boundary, var_begin),
                       var_end - var_begin);
}

void Block::fill_from_parent(const Block& parent, int octant) {
    const int ox = (octant & 1) * (shape_.nx / 2);
    const int oy = ((octant >> 1) & 1) * (shape_.ny / 2);
    const int oz = ((octant >> 2) & 1) * (shape_.nz / 2);
    for (int v = 0; v < shape_.num_vars; ++v) {
        for (int x = 1; x <= shape_.nx; ++x) {
            const int px = ox + (x + 1) / 2;
            for (int y = 1; y <= shape_.ny; ++y) {
                const int py = oy + (y + 1) / 2;
                for (int z = 1; z <= shape_.nz; ++z) {
                    const int pz = oz + (z + 1) / 2;
                    at(v, x, y, z) = parent.at(v, px, py, pz);
                }
            }
        }
    }
}

void Block::absorb_child(const Block& child, int octant) {
    const int ox = (octant & 1) * (shape_.nx / 2);
    const int oy = ((octant >> 1) & 1) * (shape_.ny / 2);
    const int oz = ((octant >> 2) & 1) * (shape_.nz / 2);
    // Zero my octant region, then accumulate the average of 2x2x2 children.
    for (int v = 0; v < shape_.num_vars; ++v) {
        for (int x = 1; x <= shape_.nx / 2; ++x) {
            for (int y = 1; y <= shape_.ny / 2; ++y) {
                for (int z = 1; z <= shape_.nz / 2; ++z) {
                    at(v, ox + x, oy + y, oz + z) = 0.0;
                }
            }
        }
        for (int x = 1; x <= shape_.nx; ++x) {
            const int px = ox + (x + 1) / 2;
            for (int y = 1; y <= shape_.ny; ++y) {
                const int py = oy + (y + 1) / 2;
                for (int z = 1; z <= shape_.nz; ++z) {
                    const int pz = oz + (z + 1) / 2;
                    at(v, px, py, pz) += 0.125 * child.at(v, x, y, z);
                }
            }
        }
    }
}

std::int64_t Block::stencil7(int var_begin, int var_end) {
    // Rolling two-plane scratch: plane x's stencil reads original planes
    // x-1..x+1, so plane x-1's result can be written back as soon as plane x
    // has been computed. One pass over the block instead of
    // compute-everything-then-copy-back, and the scratch shrinks from a full
    // variable to two interior planes. The per-cell expression (including
    // the / 7.0 — 1/7 is not exactly representable, a multiplication would
    // change results) is unchanged, so checksums stay bit-identical.
    const std::size_t plane = static_cast<std::size_t>(shape_.ny) * shape_.nz;
    std::vector<double>& scratch = tls_scratch(2 * plane);
    const auto cell = [&](std::size_t buf, int y, int z) -> double& {
        return scratch[buf * plane + static_cast<std::size_t>(y - 1) * shape_.nz + (z - 1)];
    };
    const auto write_back = [&](int v, int x) {
        const std::size_t buf = static_cast<std::size_t>(x & 1);
        for (int y = 1; y <= shape_.ny; ++y) {
            for (int z = 1; z <= shape_.nz; ++z) {
                at(v, x, y, z) = cell(buf, y, z);
            }
        }
    };
    for (int v = var_begin; v < var_end; ++v) {
        for (int x = 1; x <= shape_.nx; ++x) {
            const std::size_t buf = static_cast<std::size_t>(x & 1);
            for (int y = 1; y <= shape_.ny; ++y) {
                for (int z = 1; z <= shape_.nz; ++z) {
                    cell(buf, y, z) =
                        (at(v, x - 1, y, z) + at(v, x + 1, y, z) + at(v, x, y - 1, z) +
                         at(v, x, y + 1, z) + at(v, x, y, z - 1) + at(v, x, y, z + 1) +
                         at(v, x, y, z)) /
                        7.0;
                }
            }
            if (x > 1) write_back(v, x - 1);
        }
        write_back(v, shape_.nx);
    }
    // miniAMR accounting: 7 floating-point operations per cell per variable.
    return 7 * static_cast<std::int64_t>(shape_.nx) * shape_.ny * shape_.nz *
           (var_end - var_begin);
}

void Block::fill_ghost_edges(int var) {
    // Face exchange fills face ghosts only; the 27-point stencil also reads
    // edge and corner ghosts. Fill them block-locally by clamping to the
    // nearest valid cell (deterministic and identical across variants).
    auto clamp1 = [](int c, int n) { return c < 1 ? 1 : (c > n ? n : c); };
    for (int x = 0; x <= shape_.nx + 1; ++x) {
        const bool ox = x < 1 || x > shape_.nx;
        for (int y = 0; y <= shape_.ny + 1; ++y) {
            const bool oy = y < 1 || y > shape_.ny;
            for (int z = 0; z <= shape_.nz + 1; ++z) {
                const bool oz = z < 1 || z > shape_.nz;
                if (static_cast<int>(ox) + static_cast<int>(oy) + static_cast<int>(oz) >= 2) {
                    at(var, x, y, z) =
                        at(var, clamp1(x, shape_.nx), clamp1(y, shape_.ny), clamp1(z, shape_.nz));
                }
            }
        }
    }
}

std::int64_t Block::stencil27(int var_begin, int var_end) {
    // Same rolling two-plane fusion as stencil7 (the 27-point stencil also
    // only reads planes x-1..x+1). The accumulation order and the / 27.0
    // are unchanged — bit-identical results.
    const std::size_t plane = static_cast<std::size_t>(shape_.ny) * shape_.nz;
    std::vector<double>& scratch = tls_scratch(2 * plane);
    const auto cell = [&](std::size_t buf, int y, int z) -> double& {
        return scratch[buf * plane + static_cast<std::size_t>(y - 1) * shape_.nz + (z - 1)];
    };
    const auto write_back = [&](int v, int x) {
        const std::size_t buf = static_cast<std::size_t>(x & 1);
        for (int y = 1; y <= shape_.ny; ++y) {
            for (int z = 1; z <= shape_.nz; ++z) {
                at(v, x, y, z) = cell(buf, y, z);
            }
        }
    };
    for (int v = var_begin; v < var_end; ++v) fill_ghost_edges(v);
    for (int v = var_begin; v < var_end; ++v) {
        for (int x = 1; x <= shape_.nx; ++x) {
            const std::size_t buf = static_cast<std::size_t>(x & 1);
            for (int y = 1; y <= shape_.ny; ++y) {
                for (int z = 1; z <= shape_.nz; ++z) {
                    double sum = 0;
                    for (int dx = -1; dx <= 1; ++dx) {
                        for (int dy = -1; dy <= 1; ++dy) {
                            for (int dz = -1; dz <= 1; ++dz) {
                                sum += at(v, x + dx, y + dy, z + dz);
                            }
                        }
                    }
                    cell(buf, y, z) = sum / 27.0;
                }
            }
            if (x > 1) write_back(v, x - 1);
        }
        write_back(v, shape_.nx);
    }
    return 27 * static_cast<std::int64_t>(shape_.nx) * shape_.ny * shape_.nz *
           (var_end - var_begin);
}

double Block::checksum(int var_begin, int var_end) const {
    double sum = 0;
    for (int v = var_begin; v < var_end; ++v) {
        for (int x = 1; x <= shape_.nx; ++x) {
            for (int y = 1; y <= shape_.ny; ++y) {
                for (int z = 1; z <= shape_.nz; ++z) {
                    sum += at(v, x, y, z);
                }
            }
        }
    }
    return sum;
}

}  // namespace dfamr::amr
