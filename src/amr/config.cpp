#include "amr/config.hpp"

#include "common/error.hpp"

namespace dfamr::amr {

std::string to_string(Variant v) {
    switch (v) {
        case Variant::MpiOnly: return "MPI-only";
        case Variant::ForkJoin: return "MPI+OMP fork-join";
        case Variant::TampiOss: return "TAMPI+OSS";
    }
    return "unknown";
}

void Config::validate() const {
    DFAMR_REQUIRE(npx >= 1 && npy >= 1 && npz >= 1, "ranks per dimension must be >= 1");
    DFAMR_REQUIRE(init_x >= 1 && init_y >= 1 && init_z >= 1,
                  "initial blocks per rank per dimension must be >= 1");
    DFAMR_REQUIRE(nx >= 2 && ny >= 2 && nz >= 2, "block sizes must be >= 2");
    DFAMR_REQUIRE(nx % 2 == 0 && ny % 2 == 0 && nz % 2 == 0,
                  "block sizes must be even (face restriction averages 2x2 cells)");
    DFAMR_REQUIRE(num_vars >= 1, "need at least one variable");
    DFAMR_REQUIRE(comm_vars >= 0 && comm_vars <= num_vars,
                  "comm_vars must be in [0, num_vars]");
    DFAMR_REQUIRE(stencil == 7 || stencil == 27, "stencil must be 7 or 27");
    DFAMR_REQUIRE(num_tsteps >= 1, "need at least one timestep");
    DFAMR_REQUIRE(stages_per_ts >= 1, "need at least one stage per timestep");
    DFAMR_REQUIRE(checksum_freq >= 0, "checksum_freq must be >= 0");
    DFAMR_REQUIRE(tol > 0, "tolerance must be positive");
    DFAMR_REQUIRE(num_refine >= 0 && num_refine <= 12, "num_refine must be in [0, 12]");
    DFAMR_REQUIRE(refine_freq >= 0, "refine_freq must be >= 0");
    DFAMR_REQUIRE(block_change >= 0, "block_change must be >= 0");
    DFAMR_REQUIRE(inbalance >= 0, "inbalance threshold must be >= 0");
    DFAMR_REQUIRE(!scenario.empty(), "scenario name must not be empty");
    DFAMR_REQUIRE(!estimator.empty(), "estimator name must not be empty");
    DFAMR_REQUIRE(refine_threshold >= 0, "refine_threshold must be >= 0");
    DFAMR_REQUIRE(deref_count >= 1, "deref_count must be >= 1");
    DFAMR_REQUIRE(max_comm_tasks >= 0, "max_comm_tasks must be >= 0");
    DFAMR_REQUIRE(workers >= 1, "workers must be >= 1");
    DFAMR_REQUIRE(checkpoint_every >= 0, "checkpoint_every must be >= 0");
    DFAMR_REQUIRE(checkpoint_every == 0 || !checkpoint_path.empty(),
                  "checkpointing needs a checkpoint_path");
    DFAMR_REQUIRE(comm_timeout_s > 0, "comm_timeout must be positive");
    DFAMR_REQUIRE(comm_max_attempts >= 1, "comm_retries must allow at least one attempt");
    for (const ObjectSpec& obj : objects) {
        DFAMR_REQUIRE(obj.size.x > 0 && obj.size.y > 0 && obj.size.z > 0,
                      "objects must have positive size");
    }
}

void Config::register_cli(CliParser& cli) {
    cli.add_option("--npx", "ranks in x", "1");
    cli.add_option("--npy", "ranks in y", "1");
    cli.add_option("--npz", "ranks in z", "1");
    cli.add_option("--init_x", "initial blocks per rank in x", "1");
    cli.add_option("--init_y", "initial blocks per rank in y", "1");
    cli.add_option("--init_z", "initial blocks per rank in z", "1");
    cli.add_option("--nx", "cells per block in x (even)", "10");
    cli.add_option("--ny", "cells per block in y (even)", "10");
    cli.add_option("--nz", "cells per block in z (even)", "10");
    cli.add_option("--num_vars", "variables per cell", "40");
    cli.add_option("--comm_vars", "variables per communication group (0 = all)", "0");
    cli.add_option("--stencil", "stencil points: 7 or 27", "7");
    cli.add_option("--num_tsteps", "timesteps to run", "20");
    cli.add_option("--stages_per_ts", "stages per timestep", "20");
    cli.add_option("--checksum_freq", "stages between checksums (0 = off)", "5");
    cli.add_option("--tol", "relative checksum drift tolerance", "0.05");
    cli.add_option("--num_refine", "maximum refinement level", "5");
    cli.add_option("--refine_freq", "timesteps between refinements (0 = off)", "5");
    cli.add_option("--block_change", "max level changes per block per refinement (0 = num_refine)",
                   "0");
    cli.add_option("--scenario",
                   "problem generator: synthetic | gaussian | slotted_cylinder | front",
                   "synthetic");
    cli.add_option("--estimator",
                   "refinement condition: objects | gradient | curvature", "objects");
    cli.add_option("--refine_threshold",
                   "estimator score above which a block refines (strict)", "0.5");
    cli.add_option("--deref_count",
                   "consecutive coarsen-willing checks before a block coarsens", "1");
    cli.add_flag("--uniform_refine", "refine uniformly everywhere");
    cli.add_flag("--no_lb", "disable RCB load balancing");
    cli.add_option("--inbalance", "imbalance threshold triggering load balance", "0.05");
    cli.add_flag("--send_faces", "one MPI message per face");
    cli.add_flag("--separate_buffers", "per-direction communication buffers (paper §IV-A)");
    cli.add_option("--max_comm_tasks",
                   "max communication tasks per direction and neighbor with --send_faces "
                   "(0 = one per face; paper §IV-A)",
                   "0");
    cli.add_flag("--delayed_checksum", "validate the previous checksum stage (paper §IV-C)");
    cli.add_flag("--serial_refinement",
                 "ablation: keep refinement data operations sequential (pre-paper behaviour)");
    cli.add_option("--workers", "cores per rank for hybrid variants", "1");
    cli.add_option("--seed", "seed for initial cell values", "42");
    cli.add_option("--checkpoint_every", "timesteps between checkpoints (0 = off)", "0");
    cli.add_option("--checkpoint_path", "checkpoint file path", "dfamr.ckpt");
    cli.add_option("--restore", "restore simulation state from a checkpoint file", "");
    cli.add_option("--comm_timeout", "hardened communication deadline in seconds", "10");
    cli.add_option("--comm_retries", "send attempts before CommTimeout", "5");
    cli.add_multi_option(
        "--object", 14,
        "object spec: type bounce cx cy cz mx my mz sx sy sz ix iy iz "
        "(type 0-21, bounce 0/1, center, move/ts, semi-size, growth/ts)");
}

Config Config::from_cli(const CliParser& cli) { return from_cli(cli, Config{}); }

Config Config::from_cli(const CliParser& cli, Config base) {
    Config cfg = std::move(base);
    auto set_int = [&cli](const char* name, int& field) {
        if (cli.has(name)) field = static_cast<int>(cli.get_int(name));
    };
    auto set_double = [&cli](const char* name, double& field) {
        if (cli.has(name)) field = cli.get_double(name);
    };
    set_int("--npx", cfg.npx);
    set_int("--npy", cfg.npy);
    set_int("--npz", cfg.npz);
    set_int("--init_x", cfg.init_x);
    set_int("--init_y", cfg.init_y);
    set_int("--init_z", cfg.init_z);
    set_int("--nx", cfg.nx);
    set_int("--ny", cfg.ny);
    set_int("--nz", cfg.nz);
    set_int("--num_vars", cfg.num_vars);
    set_int("--comm_vars", cfg.comm_vars);
    set_int("--stencil", cfg.stencil);
    set_int("--num_tsteps", cfg.num_tsteps);
    set_int("--stages_per_ts", cfg.stages_per_ts);
    set_int("--checksum_freq", cfg.checksum_freq);
    set_double("--tol", cfg.tol);
    set_int("--num_refine", cfg.num_refine);
    set_int("--refine_freq", cfg.refine_freq);
    set_int("--block_change", cfg.block_change);
    if (cli.has("--scenario")) cfg.scenario = cli.get_string("--scenario");
    if (cli.has("--estimator")) cfg.estimator = cli.get_string("--estimator");
    set_double("--refine_threshold", cfg.refine_threshold);
    set_int("--deref_count", cfg.deref_count);
    if (cli.get_flag("--uniform_refine")) cfg.uniform_refine = true;
    if (cli.get_flag("--no_lb")) cfg.lb_opt = false;
    set_double("--inbalance", cfg.inbalance);
    if (cli.get_flag("--send_faces")) cfg.send_faces = true;
    if (cli.get_flag("--separate_buffers")) cfg.separate_buffers = true;
    set_int("--max_comm_tasks", cfg.max_comm_tasks);
    if (cli.get_flag("--delayed_checksum")) cfg.delayed_checksum = true;
    if (cli.get_flag("--serial_refinement")) cfg.taskify_refinement = false;
    set_int("--workers", cfg.workers);
    if (cli.has("--seed")) cfg.seed = static_cast<std::uint64_t>(cli.get_int("--seed"));
    set_int("--checkpoint_every", cfg.checkpoint_every);
    if (cli.has("--checkpoint_path")) cfg.checkpoint_path = cli.get_string("--checkpoint_path");
    if (cli.has("--restore")) cfg.restore_path = cli.get_string("--restore");
    set_double("--comm_timeout", cfg.comm_timeout_s);
    set_int("--comm_retries", cfg.comm_max_attempts);

    if (!cli.get_multi("--object").empty()) cfg.objects.clear();
    for (const auto& vals : cli.get_multi("--object")) {
        ObjectSpec obj;
        const int type = std::stoi(vals[0]);
        DFAMR_REQUIRE(type >= 0 && type <= 21, "object type must be 0-21");
        obj.type = static_cast<ObjectType>(type);
        obj.bounce = std::stoi(vals[1]) != 0;
        obj.center = {std::stod(vals[2]), std::stod(vals[3]), std::stod(vals[4])};
        obj.move = {std::stod(vals[5]), std::stod(vals[6]), std::stod(vals[7])};
        obj.size = {std::stod(vals[8]), std::stod(vals[9]), std::stod(vals[10])};
        obj.inc = {std::stod(vals[11]), std::stod(vals[12]), std::stod(vals[13])};
        cfg.objects.push_back(obj);
    }
    cfg.validate();
    return cfg;
}

Config single_sphere_input() {
    // §V / §V-A: a big sphere entering the mesh from a lower corner over 20
    // timesteps; 60 stages per timestep, 18^3-cell blocks, 60 variables,
    // refinement every 5 timesteps, checksum every 10 stages.
    Config cfg;
    cfg.nx = cfg.ny = cfg.nz = 18;
    cfg.num_vars = 60;
    cfg.num_tsteps = 20;
    cfg.stages_per_ts = 60;
    cfg.refine_freq = 5;
    cfg.checksum_freq = 10;

    ObjectSpec sphere;
    sphere.type = ObjectType::SpheroidSurface;
    sphere.center = {-0.3, -0.3, -0.3};
    sphere.size = {0.5, 0.5, 0.5};
    // Reaches the mesh center area by the end of the run.
    sphere.move = {0.8 / cfg.num_tsteps, 0.8 / cfg.num_tsteps, 0.8 / cfg.num_tsteps};
    cfg.objects.push_back(sphere);
    return cfg;
}

Config four_spheres_input() {
    // §V / Vaughan et al.: two spheres on one side moving along +x, two on
    // the opposite side moving along -x; they pass near the center without
    // colliding and stop short of the opposite border.
    Config cfg;
    cfg.nx = cfg.ny = cfg.nz = 12;
    cfg.num_vars = 40;
    cfg.num_tsteps = 99;
    cfg.stages_per_ts = 40;
    cfg.refine_freq = 5;
    cfg.checksum_freq = 10;

    const double radius = 0.09;
    const double travel = 1.0 - 2 * (radius + 0.06);  // stay inside the borders
    const double rate = travel / cfg.num_tsteps;
    struct Placement {
        Vec3d center;
        double dir;
    };
    const Placement placements[4] = {
        {{radius + 0.06, 0.25, 0.25}, +1.0},
        {{radius + 0.06, 0.75, 0.75}, +1.0},
        {{1.0 - radius - 0.06, 0.25, 0.75}, -1.0},
        {{1.0 - radius - 0.06, 0.75, 0.25}, -1.0},
    };
    for (const Placement& p : placements) {
        ObjectSpec sphere;
        sphere.type = ObjectType::SpheroidSurface;
        sphere.center = p.center;
        sphere.size = {radius, radius, radius};
        sphere.move = {p.dir * rate, 0, 0};
        cfg.objects.push_back(sphere);
    }
    return cfg;
}

}  // namespace dfamr::amr
