#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/scenario.hpp"
#include "hydro/update.hpp"
#include "io/checkpoint.hpp"
#include "support/rng.hpp"

namespace octobench {

using namespace octo;
using namespace octo::amr;

namespace {

constexpr std::uint64_t perturb_stream = 0x7065727475726221ULL;
constexpr std::uint64_t blast_stream = 0x626c617374736564ULL;

/// Relative amplitude of the V1309 field perturbation.
constexpr double perturb_amplitude = 1e-6;
/// Blast: finest level of the centrally refined tree, the injection radius
/// in finest cells, and the energy range the seed draws from.
constexpr int blast_level = 5;
constexpr double blast_radius_cells = 4.0;
constexpr double blast_energy_lo = 0.9;
constexpr double blast_energy_hi = 1.1;
/// Churn: a level-3 leaf is refined when its density peak exceeds this. The
/// threshold sits in a wide gap of the leaf-peak distribution (1e-10 vs
/// >= 0.45), so the 1e-6 seed perturbation never changes which leaves
/// refine: 8 of them, taking the tree from 137 to 201 nodes.
constexpr double churn_rho_threshold = 0.05;

core::v1309_config v1309_cfg(int max_level) {
    core::v1309_config cfg;
    cfg.domain_over_separation = 8.0;
    cfg.max_level = max_level;
    return cfg;
}

/// The centrally refined level-5 tree of bench_hydro_step: boxes whose
/// centre lies near the domain centre refine down to `max_level`.
tree blast_tree(int max_level) {
    box_geometry g;
    g.origin = {-0.5, -0.5, -0.5};
    g.dx = 1.0 / INX;
    tree t(g);
    t.refine_by(
        [](node_key, const box_geometry& bg) {
            const dvec3 c = bg.cell_center(INX / 2, INX / 2, INX / 2);
            return norm(c) < 0.28 * (bg.dx * INX * 8);
        },
        max_level);
    return t;
}

/// Sedov point blast: cold uniform medium, energy E deposited uniformly in
/// a sphere of blast_radius_cells finest cells around `centre`.
void init_blast(tree& t, const phys::ideal_gas_eos& eos, double energy,
                const dvec3& centre, double r0) {
    const double v_inj = 4.0 / 3.0 * M_PI * r0 * r0 * r0;
    for (const node_key k : t.leaves_sfc()) {
        subgrid& sg = t.ensure_fields(k);
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = sg.geom.cell_center(i, j, kk);
                    const double u =
                        norm(r - centre) < r0 ? energy / v_inj : 1e-8;
                    for (int f = 0; f < n_fields; ++f) {
                        sg.interior(f, i, j, kk) = 0.0;
                    }
                    sg.interior(f_rho, i, j, kk) = 1.0;
                    sg.interior(f_egas, i, j, kk) = u;
                    sg.interior(f_tau, i, j, kk) = eos.tau_from_internal(u);
                }
    }
}

double leaf_rho_max(const subgrid& sg) {
    double m = 0;
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j)
            for (int kk = 0; kk < INX; ++kk) {
                m = std::max(m, sg.interior(f_rho, i, j, kk));
            }
    return m;
}

} // namespace

std::optional<workload> parse_workload(std::string_view name) {
    for (const workload w : {workload::v1309_gravity, workload::blast_hydro,
                             workload::v1309_churn}) {
        if (name == workload_name(w)) return w;
    }
    return std::nullopt;
}

const char* workload_name(workload w) {
    switch (w) {
    case workload::v1309_gravity: return "v1309_gravity";
    case workload::blast_hydro: return "blast_hydro";
    case workload::v1309_churn: return "v1309_churn";
    }
    return "?";
}

const workload_spec& spec(workload w) {
    static const workload_spec gravity{.initial_nodes = 265,
                                       .traced_iterations = 4};
    // Building the blast takes < 0.15 s, so more builds steady its median.
    static const workload_spec blast{.initial_nodes = 1273,
                                     .setup_repeats = 5,
                                     .traced_iterations = 5};
    static const workload_spec churn{.initial_nodes = 137,
                                     .lb_ranks = 8,
                                     .checkpoint_every = 1,
                                     .checkpoint_full_every = 4,
                                     .churn = true,
                                     .churn_level = 4,
                                     .traced_iterations = 8};
    switch (w) {
    case workload::v1309_gravity: return gravity;
    case workload::blast_hydro: return blast;
    case workload::v1309_churn: return churn;
    }
    return gravity;
}

sim_options options(workload w, rt::thread_pool* pool) {
    sim_options opt;
    opt.pool = pool;
    if (w == workload::blast_hydro) {
        opt.eos = phys::ideal_gas_eos(1.4);
        opt.self_gravity = false;
    } else {
        opt.eos = phys::ideal_gas_eos(1.0 + 1.0 / 1.5); // n = 1.5 polytropes
    }
    opt.lb.ranks = spec(w).lb_ranks;
    return opt;
}

std::unique_ptr<simulation> build(workload w, std::uint64_t seed,
                                  const sim_options& opt) {
    switch (w) {
    case workload::v1309_gravity:
        return std::make_unique<simulation>(
            core::make_v1309(v1309_cfg(5), opt));
    case workload::v1309_churn:
        return std::make_unique<simulation>(
            core::make_v1309(v1309_cfg(3), opt));
    case workload::blast_hydro: {
        tree t = blast_tree(blast_level);
        xoshiro256 rng(seed ^ blast_stream);
        const double energy = rng.uniform(blast_energy_lo, blast_energy_hi);
        const double dx = t.root_geometry().dx / (1 << blast_level);
        // Each component within half a finest cell: |offset| < one cell.
        const dvec3 centre{rng.uniform(-0.5, 0.5) * dx,
                           rng.uniform(-0.5, 0.5) * dx,
                           rng.uniform(-0.5, 0.5) * dx};
        init_blast(t, opt.eos, energy, centre, blast_radius_cells * dx);
        return std::make_unique<simulation>(std::move(t), opt);
    }
    }
    return nullptr;
}

void perturb(workload w, std::uint64_t seed, simulation& sim) {
    if (w == workload::blast_hydro) return;
    xoshiro256 rng(seed ^ perturb_stream);
    tree& t = sim.grid();
    for (const node_key k : t.leaves_sfc()) {
        subgrid& sg = *t.node(k).fields;
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    // One factor per cell keeps velocities and specific
                    // energies unchanged; radiation fields stay untouched.
                    const double s =
                        1.0 + perturb_amplitude * rng.uniform(-1.0, 1.0);
                    for (int f = f_rho; f <= f_frac_atmosphere; ++f) {
                        sg.interior(f, i, j, kk) *= s;
                    }
                }
    }
}

void arm_checkpoints(workload w, simulation& sim, const std::string& dir) {
    const workload_spec& s = spec(w);
    if (s.checkpoint_every <= 0) return;
    sim.set_checkpoint_policy({.every_steps = s.checkpoint_every,
                               .path_prefix = dir + "/ckpt",
                               .full_every = s.checkpoint_full_every});
}

std::vector<node_key> churn_regrid(workload w, simulation& sim) {
    const tree& t = sim.grid();
    const std::vector<node_key> leaves_before = t.leaves_sfc();
    const int level = spec(w).churn_level;
    sim.regrid(
        [coarse = level - 1](node_key k, const subgrid& sg) {
            return key_level(k) == coarse &&
                   leaf_rho_max(sg) > churn_rho_threshold;
        },
        level);
    std::vector<node_key> refined;
    for (const node_key k : leaves_before) {
        if (t.node(k).refined) refined.push_back(k);
    }
    std::sort(refined.begin(), refined.end());
    return refined;
}

void churn_coarsen(simulation& sim, const std::vector<node_key>& refined) {
    sim.coarsen([&refined](node_key k, const subgrid&) {
        return std::binary_search(refined.begin(), refined.end(), k);
    });
}

void iterate(simulation& sim, workload w) {
    (void)sim.advance();
    if (spec(w).churn) churn_coarsen(sim, churn_regrid(w, sim));
}

std::uint32_t tree_digest(const tree& t) {
    return io::digest_map_crc(io::leaf_digests(t));
}

ledger measure_ledger(const tree& t) {
    const hydro::totals tot = hydro::compute_totals(t);
    ledger l;
    l.mass = tot.mass;
    l.lz = tot.angular_momentum.z;
    for (const node_key k : t.leaves_sfc()) {
        const subgrid& sg = *t.node(k).fields;
        const double v = sg.geom.cell_volume();
        for (int i = 0; i < INX; ++i)
            for (int j = 0; j < INX; ++j)
                for (int kk = 0; kk < INX; ++kk) {
                    const dvec3 r = sg.geom.cell_center(i, j, kk);
                    l.lz_scale +=
                        v * (std::abs(r.x * sg.interior(f_sy, i, j, kk)) +
                             std::abs(r.y * sg.interior(f_sx, i, j, kk)) +
                             std::abs(sg.interior(f_lz, i, j, kk)));
                }
    }
    return l;
}

double mass_drift_bound(workload w, long iterations) {
    if (w == workload::blast_hydro) return 1e-12;
    const double n = static_cast<double>(std::max(iterations, 1L));
    return 2e-11 * n * n;
}

std::string check_state(workload w, const tree& t, const ledger& initial,
                        long iterations) {
    for (const node_key k : t.leaves_sfc()) {
        const subgrid& sg = *t.node(k).fields;
        for (int f = 0; f < n_fields; ++f)
            for (int i = 0; i < INX; ++i)
                for (int j = 0; j < INX; ++j)
                    for (int kk = 0; kk < INX; ++kk) {
                        if (!std::isfinite(sg.interior(f, i, j, kk))) {
                            return std::string("non-finite ") + field_name(f);
                        }
                    }
    }
    const ledger now = measure_ledger(t);
    char buf[160];
    const double dm = std::abs(now.mass - initial.mass) / initial.mass;
    const double dm_bound = mass_drift_bound(w, iterations);
    if (!(dm <= dm_bound)) {
        std::snprintf(buf, sizeof buf, "mass drift %.3e > %.1e", dm, dm_bound);
        return buf;
    }
    const double scale = std::max(now.lz_scale, initial.lz_scale);
    const double dl = scale > 0 ? std::abs(now.lz - initial.lz) / scale : 0;
    if (!(dl <= lz_drift_bound)) {
        std::snprintf(buf, sizeof buf, "Lz drift %.3e > %.0e", dl,
                      lz_drift_bound);
        return buf;
    }
    return {};
}

} // namespace octobench
