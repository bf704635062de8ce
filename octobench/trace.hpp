#pragma once
// Spans recorded from the benchmark's own files around calls into each
// module, and the traced replica of simulation::advance that makes them.
// Spans inside the program are out of scope: every span here wraps a public
// call (fmm::solver::solve, hydro::step, amr::cost_model::observe_step,
// amr::rebalance_sfc, simulation::regrid/coarsen, the io checkpoint calls).

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "amr/cost_model.hpp"
#include "amr/partition.hpp"
#include "fmm/solver.hpp"
#include "io/checkpoint.hpp"
#include "workload.hpp"

namespace octobench {

struct span {
    const char* name;
    double start; ///< seconds since the tracer was created
    double end;
    int parent;   ///< index of the causing span, -1 for a root
    int step;     ///< iteration index, -1 outside iterations
};

/// In-memory span store. begin/end may be called from any thread (the FMM
/// solve runs on a pool worker inside hydro::step).
class tracer {
  public:
    int begin(const char* name, int parent, int step);
    void end(int id);
    std::vector<span> spans() const;

    class scope {
      public:
        scope(tracer& t, const char* name, int parent, int step)
            : t_(t), id_(t.begin(name, parent, step)) {}
        ~scope() { t_.end(id_); }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;
        int id() const { return id_; }

      private:
        tracer& t_;
        int id_;
    };

  private:
    double now() const;
    const std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    mutable std::mutex mutex_;
    std::vector<span> spans_; ///< guarded by mutex_
};

/// Per-name self time (duration minus the union of its children's
/// intervals), summed over spans whose step is >= min_step; the root
/// "step" spans are included under their own name.
std::map<std::string, double> self_seconds(const std::vector<span>& spans,
                                           int min_step);

/// Wall time of each root "step" span, indexed by step.
std::vector<double> step_seconds(const std::vector<span>& spans);

/// Work a replica did, summed over its iterations.
struct replica_work {
    std::uint64_t full_writes = 0, full_bytes = 0;
    std::uint64_t delta_writes = 0, delta_bytes = 0;
    std::uint64_t nodes_changed = 0; ///< added by regrid + removed by coarsen
    std::uint64_t rebalances = 0;
    double migration_fraction_sum = 0;
    double imbalance_pct_sum = 0; ///< modeled-rank imbalance after each rebalance
};

/// Replica of simulation::advance (plus the churn regrid/coarsen) making the
/// same public calls in the same order, with a span around each. It drives
/// the tree of `sim`, which must be freshly built or restarted and is then
/// advanced only through this replica; it owns its own gravity solver, cost
/// model, partition and checkpoint chain, like the simulation does.
class replica {
  public:
    replica(workload w, simulation& sim, const sim_options& opt,
            std::string checkpoint_dir, tracer& tr);

    /// One iteration; returns the node count the step advanced.
    std::size_t iterate(int step);

    const std::vector<std::string>& checkpoint_chain() const { return chain_; }
    const replica_work& work() const { return work_; }

  private:
    void write_checkpoint(int parent, int step);

    workload w_;
    simulation& sim_;
    sim_options opt_;
    std::string dir_;
    tracer& tr_;
    octo::fmm::solver gravity_;
    octo::amr::cost_model cost_;
    octo::amr::partition_stats parts_;
    double time_;
    long steps_;
    std::vector<std::string> chain_;
    octo::io::leaf_digest_map base_digests_;
    long checkpoints_ = 0;
    replica_work work_;
};

} // namespace octobench
