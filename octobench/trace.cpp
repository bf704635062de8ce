#include "trace.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "hydro/update.hpp"

namespace octobench {

using namespace octo;

int tracer::begin(const char* name, int parent, int step) {
    const double t = now();
    std::lock_guard lock(mutex_);
    spans_.push_back({name, t, t, parent, step});
    return static_cast<int>(spans_.size()) - 1;
}

void tracer::end(int id) {
    const double t = now();
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<span> tracer::spans() const {
    std::lock_guard lock(mutex_);
    return spans_;
}

double tracer::now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
}

std::map<std::string, double> self_seconds(const std::vector<span>& spans,
                                           int min_step) {
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const span& s : spans) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                      s.end);
        }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        if (s.step < min_step) continue;
        auto& iv = children[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start);
            hi = std::min(hi, s.end);
            if (hi <= lo) continue;
            if (lo > cur_hi) {
                if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        self[s.name] += (s.end - s.start) - covered;
    }
    return self;
}

std::vector<double> step_seconds(const std::vector<span>& spans) {
    std::vector<double> out;
    for (const span& s : spans) {
        if (s.parent < 0 && s.step >= 0) {
            out.resize(std::max(out.size(), static_cast<std::size_t>(s.step) + 1));
            out[static_cast<std::size_t>(s.step)] = s.end - s.start;
        }
    }
    return out;
}

replica::replica(workload w, simulation& sim, const sim_options& opt,
                 std::string checkpoint_dir, tracer& tr)
    : w_(w),
      sim_(sim),
      opt_(opt),
      dir_(std::move(checkpoint_dir)),
      tr_(tr),
      // The same solver configuration simulation's constructor builds.
      gravity_({.conserve = opt.conserve,
                .vectorized = opt.vectorized,
                .device = opt.device,
                .pool = opt.pool,
                .aggregator = opt.aggregator,
                .autotune = opt.autotune,
                .machine = opt.machine}),
      cost_(opt.lb.cost),
      parts_(sim.partition()),
      time_(sim.time()),
      steps_(sim.step_count()) {}

std::size_t replica::iterate(int step) {
    amr::tree& t = sim_.grid();
    const std::size_t nodes = t.size();
    tracer::scope root(tr_, "step", -1, step);

    // simulation::advance: hydro step with a gravity re-solve before each
    // RK stage.
    hydro::step_options h;
    h.eos = opt_.eos;
    h.bc = opt_.bc;
    h.cfl = opt_.cfl;
    h.omega = opt_.omega;
    h.pool = opt_.pool;
    h.aggregator = opt_.aggregator;
    h.autotune = opt_.autotune;
    h.machine = opt_.machine;
    int hydro_id = -1;
    if (opt_.self_gravity) {
        h.before_stage = [this, &t, &hydro_id, step] {
            tracer::scope s(tr_, "fmm.solve", hydro_id, step);
            gravity_.solve(t);
        };
        h.gravity = [this](amr::node_key k)
            -> std::optional<hydro::gravity_field> {
            const auto& g = gravity_.gravity(k);
            return hydro::gravity_field{g.gx.data(),    g.gy.data(),
                                        g.gz.data(),    g.tq[0].data(),
                                        g.tq[1].data(), g.tq[2].data()};
        };
    }
    double dt = 0;
    {
        tracer::scope s(tr_, "hydro.step", root.id(), step);
        hydro_id = s.id();
        dt = hydro::step(t, h);
    }
    time_ += dt;
    ++steps_;
    if (opt_.lb.ranks > 0) {
        {
            tracer::scope s(tr_, "amr.observe", root.id(), step);
            cost_.observe_step(t, parts_);
        }
        if (opt_.lb.every_steps > 0 && steps_ % opt_.lb.every_steps == 0) {
            tracer::scope s(tr_, "amr.rebalance", root.id(), step);
            const amr::rebalance_options ropt{.max_migration_fraction =
                                                  opt_.lb.max_migration_fraction};
            const amr::rebalance_result r = amr::rebalance_sfc(
                t, opt_.lb.ranks, cost_.leaf_weights(t), ropt);
            parts_ = r.stats;
            ++work_.rebalances;
            work_.migration_fraction_sum += r.migration_fraction;
            work_.imbalance_pct_sum += r.stats.imbalance_pct();
        }
    }
    const workload_spec& sp = spec(w_);
    if (sp.checkpoint_every > 0 && steps_ % sp.checkpoint_every == 0) {
        write_checkpoint(root.id(), step);
    }

    if (sp.churn) {
        std::vector<amr::node_key> refined;
        {
            tracer::scope s(tr_, "amr.regrid", root.id(), step);
            refined = churn_regrid(w_, sim_);
        }
        const std::size_t grown = t.size();
        {
            tracer::scope s(tr_, "amr.coarsen", root.id(), step);
            churn_coarsen(sim_, refined);
        }
        // Nodes the regrid added plus nodes the coarsen removed.
        work_.nodes_changed += (grown - nodes) + (grown - t.size());
        // The simulation repartitioned the changed tree; adopt its split.
        parts_ = sim_.partition();
    }
    return nodes;
}

void replica::write_checkpoint(int parent, int step) {
    // simulation::write_periodic_checkpoint: a {full, delta...} chain.
    const std::string stem = dir_ + "/ckpt." + std::to_string(steps_);
    const long full_every = spec(w_).checkpoint_full_every;
    const bool full = full_every <= 1 || chain_.empty() ||
                      checkpoints_ % full_every == 0;
    const io::checkpoint_meta meta{.time = time_, .steps = steps_};
    if (full) {
        const std::string path = stem + ".ckpt";
        {
            tracer::scope s(tr_, "io.full_write", parent, step);
            io::write_checkpoint(sim_.grid(), path, meta);
        }
        {
            tracer::scope s(tr_, "io.digest", parent, step);
            base_digests_ = io::leaf_digests(sim_.grid());
        }
        ++work_.full_writes;
        work_.full_bytes += std::filesystem::file_size(path);
        chain_ = {path};
    } else {
        const std::string path = stem + ".dckpt";
        io::delta_stats st;
        {
            tracer::scope s(tr_, "io.delta_write", parent, step);
            st = io::write_checkpoint_delta(sim_.grid(), path, base_digests_,
                                            meta);
        }
        ++work_.delta_writes;
        work_.delta_bytes += st.bytes;
        chain_.resize(1);
        chain_.push_back(path);
    }
    ++checkpoints_;
}

} // namespace octobench
