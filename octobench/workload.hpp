#pragma once
// octo-bench workloads: the seeded initial states, the per-iteration driver
// and the output checks every run applies. See README.md for why each
// workload exists and which layer it stresses.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.hpp"

namespace octobench {

using octo::amr::node_key;
using octo::amr::tree;
using octo::core::sim_options;
using octo::core::simulation;

enum class workload { v1309_gravity, blast_hydro, v1309_churn };

std::optional<workload> parse_workload(std::string_view name);
const char* workload_name(workload w);

/// Fixed per-workload parameters: what is built and how it is driven.
struct workload_spec {
    std::size_t initial_nodes = 0; ///< asserted after every build, any seed
    int setup_repeats = 3;         ///< builds per measured run (setup_s)
    int lb_ranks = 0;              ///< modeled load-balancing ranks (0 = off)
    long checkpoint_every = 0;     ///< periodic checkpoint cadence (0 = off)
    long checkpoint_full_every = 1;
    bool churn = false;            ///< regrid and coarsen every iteration
    int churn_level = 0;           ///< level the churn regrid refines to
    int traced_iterations = 0;     ///< fixed iteration count of a traced run
};
const workload_spec& spec(workload w);

/// Simulation options of the workload, running on `pool` (null = the
/// process-wide global pool).
sim_options options(workload w, octo::rt::thread_pool* pool);

/// Build the seeded initial state. The seed changes only field values,
/// never the tree: V1309 gets a <= 1e-6 relative perturbation of the sampled
/// fields, the blast its energy and a sub-cell centre offset. The returned
/// simulation has no checkpoint policy yet (see arm_checkpoints).
std::unique_ptr<simulation> build(workload w, std::uint64_t seed,
                                  const sim_options& opt);

/// Apply the V1309 seed perturbation through sim.grid() (a no-op for the
/// blast, whose seed acts while building).
void perturb(workload w, std::uint64_t seed, simulation& sim);

/// Install the workload's periodic checkpoint policy, writing under `dir`.
void arm_checkpoints(workload w, simulation& sim, const std::string& dir);

/// The churn workload's regrid: refine the dense level-(churn_level - 1)
/// leaves to churn_level. Returns the nodes it refined, sorted.
std::vector<node_key> churn_regrid(workload w, simulation& sim);
/// Coarsen exactly the nodes churn_regrid refined, so the tree returns to
/// its shape while its structure revision has changed twice.
void churn_coarsen(simulation& sim, const std::vector<node_key>& refined);

/// One benchmark iteration through the public driver API: advance(), then
/// on the churn workload churn_regrid and churn_coarsen.
void iterate(simulation& sim, workload w);

/// Whole-tree digest: CRC over every leaf's content CRC.
std::uint32_t tree_digest(const tree& t);

/// Conservation ledger of the leaves.
struct ledger {
    double mass = 0;
    double lz = 0;       ///< orbital + spin angular momentum about z
    double lz_scale = 0; ///< sum of |x s_y| + |y s_x| + |l_z| over cells
};
ledger measure_ledger(const tree& t);

/// Lz (orbital + spin) drift bound, relative to ledger::lz_scale: the
/// conservation invariant is ~1e-14, measured drift stays near 1e-13.
inline constexpr double lz_drift_bound = 1e-12;

/// Relative mass drift allowed `iterations` iterations after the initial
/// state. The blast never reaches the boundary and must conserve mass to
/// rounding. V1309 runs with an outflow boundary through which the
/// atmosphere falls in, so its mass grows: ~1e-11 over the first steps (the
/// invariant's scale), then roughly quadratically (~1e-10 after 25 steps at
/// max_level 5, ~1.4e-9 after 21 at max_level 3), and its bound is
/// 2e-11 * iterations^2.
double mass_drift_bound(workload w, long iterations);

/// Check the state `iterations` iterations after `initial`: every field of
/// every leaf finite, and mass and Lz drift within bounds. Returns an empty
/// string when the state passes, else what failed.
std::string check_state(workload w, const tree& t, const ledger& initial,
                        long iterations);

} // namespace octobench
