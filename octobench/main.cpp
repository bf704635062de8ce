// octo-bench: the measured coupled-step benchmark.
//
//   octobench --workload <v1309_gravity|blast_hydro|v1309_churn>
//             --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//             [--trace-out <file>]
//
// One process, one closed-loop caller: each iteration waits for the previous
// one, on rt::thread_pool::global(). --trace 0 drives simulation::advance
// and reports the end-to-end metrics; --trace 1 runs the traced replica
// (trace.hpp) for a fixed iteration count on 4 workers and on 1 worker and
// reports the per-layer metrics. Checkpoints and other run files go under
// the --scratch directory. Every run checks its outputs; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}. Exit
// status: 0 all checks passed, 1 a check failed, 2 bad arguments. See
// README.md for the metric catalogue.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/checkpoint.hpp"
#include "runtime/apex.hpp"
#include "support/buffer_recycler.hpp"
#include "support/flops.hpp"
#include "support/timer.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace fs = std::filesystem;
using namespace octobench;
using namespace octo;

namespace {

/// Cold first iterations in a measured run (first_step_s is their median).
constexpr int cold_repeats = 7;
/// Restarts timed at the end of a measured run (restart_s is their median).
constexpr int restart_repeats = 5;
/// step_s.tail is the highest percentile with this many samples beyond it.
constexpr std::size_t tail_beyond = 10;

struct args {
    workload w = workload::v1309_gravity;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string scratch;
    std::string trace_out;
};

bool parse_u64(std::string_view s, std::uint64_t& out) {
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc{} && p == s.data() + s.size();
}

bool parse_args(int argc, char** argv, args& a) {
    bool have[5] = {};
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) return false;
        const std::string_view v = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            const auto w = parse_workload(v);
            if (!w) return false;
            a.w = *w;
            have[0] = true;
        } else if (flag == "--seed") {
            if (!parse_u64(v, a.seed)) return false;
            have[1] = true;
        } else if (flag == "--seconds") {
            if (!parse_u64(v, n) || n < 1 || n > 3600) return false;
            a.seconds = static_cast<double>(n);
            have[2] = true;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1") return false;
            a.trace = v == "1";
            have[3] = true;
        } else if (flag == "--scratch") {
            a.scratch = v;
            have[4] = !a.scratch.empty();
        } else if (flag == "--trace-out") {
            a.trace_out = v;
        } else {
            return false;
        }
    }
    return std::all_of(std::begin(have), std::end(have), [](bool b) { return b; });
}

struct metric {
    std::string name;
    double value;
    const char* unit;
};

/// What a run reports: metrics, attempted/failed operations, and the
/// reasons for every failure.
struct outcome {
    std::vector<metric> metrics;
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> failures;

    void add(std::string name, double value, const char* unit) {
        metrics.push_back({std::move(name), value, unit});
    }
    /// Count one attempted operation; `why` non-empty marks it failed.
    void attempt(const std::string& why) {
        ++attempted;
        if (!why.empty()) {
            ++failed;
            failures.push_back(why);
        }
    }
    /// A failed check that is not an iteration (digest or node count).
    void fail(std::string why) {
        ++attempted;
        ++failed;
        failures.push_back(std::move(why));
    }
};

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::uint64_t counter(const char* name) {
    return rt::apex_registry::instance().counter(name);
}

std::uint64_t fmm_flops() {
    return flop_snapshot(kernel_class::fmm_multipole).flops() +
           flop_snapshot(kernel_class::fmm_monopole).flops();
}

std::uint64_t hydro_flops() {
    return flop_snapshot(kernel_class::hydro).flops();
}

/// Remove checkpoint files of `dir` that are not in the live chain.
void prune_checkpoints(const fs::path& dir,
                       const std::vector<std::string>& chain) {
    if (!fs::exists(dir)) return;
    for (const auto& e : fs::directory_iterator(dir)) {
        if (std::find(chain.begin(), chain.end(), e.path().string()) ==
            chain.end()) {
            fs::remove(e.path());
        }
    }
}

fs::path fresh_dir(const fs::path& p) {
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
}

std::string digest_hex(std::uint32_t d) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", d);
    return buf;
}

/// The tree of a fresh build must have the workload's fixed node count.
void check_nodes(workload w, const simulation& sim, outcome& out) {
    const std::size_t n = sim.grid().size();
    if (n != spec(w).initial_nodes) {
        out.fail("node count " + std::to_string(n) + " != " +
                 std::to_string(spec(w).initial_nodes));
    }
}

// ---- measured run (--trace 0) ------------------------------------------------

void run_measured(const args& a, outcome& out) {
    const workload w = a.w;
    const workload_spec& sp = spec(w);
    const sim_options opt = options(w, nullptr);
    auto& rec = buffer_recycler::instance();

    // Setup: build the scenario several times; keep the last build.
    std::vector<double> setup_s;
    std::vector<std::uint32_t> initial_digests;
    std::unique_ptr<simulation> sim;
    for (int r = 0; r < sp.setup_repeats; ++r) {
        sim.reset();
        stopwatch sw;
        sim = build(w, a.seed, opt);
        setup_s.push_back(sw.seconds());
        check_nodes(w, *sim, out);
        perturb(w, a.seed, *sim);
        initial_digests.push_back(tree_digest(sim->grid()));
    }
    const fs::path init = fs::path(a.scratch) / "init.ckpt";
    io::write_checkpoint(sim->grid(), init.string());
    sim.reset();

    // Cold first iterations, each on a fresh simulation restarted from the
    // initial state with empty recycler pools: FMM workspaces, halo plans
    // and pools all fill during it. The last one continues below.
    std::vector<double> first_s;
    std::vector<std::uint32_t> first_digests;
    ledger initial;
    fs::path ckdir;
    for (int r = 0; r < cold_repeats; ++r) {
        sim.reset();
        rec.clear();
        sim = std::make_unique<simulation>(simulation::restart(init.string(), opt));
        ckdir = fresh_dir(fs::path(a.scratch) / ("cold" + std::to_string(r)));
        arm_checkpoints(w, *sim, ckdir.string());
        initial = measure_ledger(sim->grid());
        stopwatch sw;
        iterate(*sim, w);
        first_s.push_back(sw.seconds());
        out.attempt(check_state(w, sim->grid(), initial, 1));
        first_digests.push_back(tree_digest(sim->grid()));
        prune_checkpoints(ckdir, sim->checkpoint_chain());
    }
    for (const auto* digests : {&initial_digests, &first_digests}) {
        for (const std::uint32_t d : *digests) {
            if (d != digests->front()) {
                out.fail(std::string("repeated ") +
                         (digests == &first_digests ? "step-1" : "initial") +
                         " digests differ: " + digest_hex(digests->front()) +
                         " vs " + digest_hex(d));
            }
        }
    }

    // Steady iterations for --seconds (and at least enough samples for a
    // tail with tail_beyond samples beyond it).
    std::vector<double> steps, rates;
    long iterations = 1;
    stopwatch total;
    while (total.seconds() < a.seconds || steps.size() <= tail_beyond) {
        const double nodes = static_cast<double>(sim->grid().size());
        stopwatch sw;
        iterate(*sim, w);
        const double t = sw.seconds();
        ++iterations;
        steps.push_back(t);
        rates.push_back(nodes / t);
        out.attempt(check_state(w, sim->grid(), initial, iterations));
        prune_checkpoints(ckdir, sim->checkpoint_chain());
    }

    // Restart latency: the final checkpoint chain on the churn workload, a
    // full image of the final state elsewhere. A churn iteration regrids and
    // coarsens after its checkpoint, so untimed advance() calls follow until
    // the chain holds the live state and is {full, delta} on every run.
    std::vector<std::string> chain;
    if (sp.checkpoint_every > 0) {
        do {
            (void)sim->advance();
            ++iterations;
            out.attempt(check_state(w, sim->grid(), initial, iterations));
            prune_checkpoints(ckdir, sim->checkpoint_chain());
        } while (sim->checkpoint_chain().size() < 2);
        chain = sim->checkpoint_chain();
    } else {
        const std::string path = (ckdir / "final.ckpt").string();
        io::write_checkpoint(sim->grid(), path,
                             {.time = sim->time(), .steps = sim->step_count()});
        chain = {path};
    }
    const std::uint32_t live = tree_digest(sim->grid());
    std::vector<double> restart_s;
    for (int r = 0; r < restart_repeats; ++r) {
        stopwatch sw;
        const simulation back = simulation::restart_chain(chain, opt);
        restart_s.push_back(sw.seconds());
        const std::uint32_t d = tree_digest(back.grid());
        out.attempt(d == live ? "" : "restart digest " + digest_hex(d) +
                                         " != live " + digest_hex(live));
    }

    std::vector<double> sorted = steps;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    const std::size_t tail_idx = n - 1 - tail_beyond;
    const double tail_pct = 100.0 * static_cast<double>(tail_idx) /
                            static_cast<double>(n - 1);

    std::printf("workload %s seed %llu: %zu nodes, %ld iterations, "
                "digest after step 1 %s, final digest %s\n",
                workload_name(w), static_cast<unsigned long long>(a.seed),
                sp.initial_nodes, iterations, digest_hex(first_digests[0]).c_str(),
                digest_hex(live).c_str());
    std::printf("step_s.tail is p%.1f of %zu steady samples (%zu beyond it)\n",
                tail_pct, n, tail_beyond);
    const auto print_samples = [](const char* what, const std::vector<double>& v) {
        std::printf("%s samples (s):", what);
        for (const double x : v) std::printf(" %.4f", x);
        std::printf("\n");
    };
    print_samples("setup", setup_s);
    print_samples("cold first iteration", first_s);
    print_samples("restart", restart_s);
    print_samples("steady iteration", steps);

    out.add("subgrids_per_s", median(rates), "1/s");
    out.add("step_s.p50", median(steps), "s");
    out.add("step_s.tail", sorted[tail_idx], "s");
    out.add("first_step_s", median(first_s), "s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("restart_s", median(restart_s), "s");
    std::printf("failed_step_fraction %.6g (%ld of %ld)\n",
                static_cast<double>(out.failed) /
                    static_cast<double>(std::max(out.attempted, 1L)),
                out.failed, out.attempted);
}

// ---- traced run (--trace 1) --------------------------------------------------

/// Counter snapshot taken at iteration boundaries of a traced run.
struct counters {
    std::uint64_t dag_tasks, stage_tasks, cfl_tasks, plan_rebuilds, plan_hits;
    std::uint64_t write_faults, crc_failures;
    std::uint64_t overlap_pct; ///< gauge: latest hydro step's value
    std::uint64_t fmm_flops, hydro_flops;
    rt::thread_pool::statistics pool;
    buffer_recycler::stats_t rec;

    static counters take() {
        return {counter("fmm.dag_tasks"),
                counter("hydro.stage_tasks"),
                counter("hydro.cfl_tasks"),
                counter("amr.halo_plan_rebuilds"),
                counter("amr.halo_plan_hits"),
                counter("io.transient_write_faults"),
                counter("io.checkpoint_crc_failures"),
                counter("hydro.ghost_overlap_fraction"),
                ::fmm_flops(),
                ::hydro_flops(),
                rt::thread_pool::global().stats(),
                buffer_recycler::instance().stats()};
    }
};

struct traced_pass {
    std::vector<span> spans;
    std::vector<counters> snaps; ///< before iteration 0 .. after the last
    std::uint32_t digest = 0;
    std::uint32_t chain_digest = 0; ///< tree restored from the final chain
    double restart_read_s = 0;
    replica_work work;
};

/// Run the replica for `iterations` iterations on a restart of `init`.
traced_pass run_replica(workload w, const std::string& init,
                        const sim_options& opt, const fs::path& dir,
                        int iterations, outcome& out) {
    buffer_recycler::instance().clear();
    simulation sim = simulation::restart(init, opt);
    const ledger initial = measure_ledger(sim.grid());
    tracer tr;
    replica rep(w, sim, opt, dir.string(), tr);
    traced_pass p;
    p.snaps.push_back(counters::take());
    for (int i = 0; i < iterations; ++i) {
        rep.iterate(i);
        p.snaps.push_back(counters::take());
        out.attempt(check_state(w, sim.grid(), initial, i + 1));
        prune_checkpoints(dir, rep.checkpoint_chain());
    }
    p.digest = tree_digest(sim.grid());
    if (!rep.checkpoint_chain().empty()) {
        const int id = tr.begin("io.restart_read", -1, -1);
        const io::checkpoint_data back =
            io::read_checkpoint_chain(rep.checkpoint_chain());
        tr.end(id);
        p.chain_digest = tree_digest(back.t);
    }
    p.spans = tr.spans();
    for (const span& s : p.spans) {
        if (std::string_view(s.name) == "io.restart_read") {
            p.restart_read_s = s.end - s.start;
        }
    }
    p.work = rep.work();
    return p;
}

void write_spans(std::ofstream& f, const char* run, const traced_pass& p,
                 bool last) {
    f << "  \"" << run << "\": [\n";
    for (std::size_t i = 0; i < p.spans.size(); ++i) {
        const span& s = p.spans[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                      "\"parent\": %d, \"step\": %d}%s\n",
                      s.name, s.start, s.end, s.parent, s.step,
                      i + 1 < p.spans.size() ? "," : "");
        f << buf;
    }
    f << "  ]" << (last ? "\n" : ",\n");
}

void run_traced(const args& a, outcome& out) {
    const workload w = a.w;
    const workload_spec& sp = spec(w);
    const int k = sp.traced_iterations;
    const sim_options opt4 = options(w, nullptr);

    // Setup, with the SCF's gravity solves read off the APEX fmm::solve
    // timer (it also counts the steps' solves, so read it only here).
    const fs::path root = fresh_dir(fs::path(a.scratch) / "traced");
    const rt::timer_stats scf0 = rt::apex_registry::instance().timer("fmm::solve");
    std::unique_ptr<simulation> sim = build(w, a.seed, opt4);
    const rt::timer_stats scf1 = rt::apex_registry::instance().timer("fmm::solve");
    check_nodes(w, *sim, out);
    perturb(w, a.seed, *sim);
    const std::string init = (root / "init.ckpt").string();
    io::write_checkpoint(sim->grid(), init);

    // Reference: simulation::advance, untraced, same iteration count.
    buffer_recycler::instance().clear();
    const fs::path dir_a = fresh_dir(root / "advance");
    arm_checkpoints(w, *sim, dir_a.string());
    const ledger initial = measure_ledger(sim->grid());
    std::vector<double> untraced;
    for (int i = 0; i < k; ++i) {
        stopwatch sw;
        iterate(*sim, w);
        untraced.push_back(sw.seconds());
        out.attempt(check_state(w, sim->grid(), initial, i + 1));
        prune_checkpoints(dir_a, sim->checkpoint_chain());
    }
    const std::uint32_t ref = tree_digest(sim->grid());
    // The chain holds the state before the iteration's regrid and coarsen, so
    // the replica's restored chain is compared with this one, not the live
    // tree.
    std::uint32_t ref_chain = 0;
    if (!sim->checkpoint_chain().empty()) {
        ref_chain =
            tree_digest(io::read_checkpoint_chain(sim->checkpoint_chain()).t);
    }
    sim.reset();

    const traced_pass p4 =
        run_replica(w, init, opt4, fresh_dir(root / "replica4"), k, out);
    rt::thread_pool pool1(1);
    const traced_pass p1 = run_replica(w, init, options(w, &pool1),
                                       fresh_dir(root / "replica1"), k, out);
    if (p4.digest != ref) {
        out.fail("replica digest " + digest_hex(p4.digest) +
                 " != simulation::advance digest " + digest_hex(ref));
    }
    if (p1.digest != p4.digest) {
        out.fail("1-worker digest " + digest_hex(p1.digest) +
                 " != 4-worker digest " + digest_hex(p4.digest));
    }
    for (const traced_pass* p : {&p4, &p1}) {
        if (p->chain_digest != ref_chain) {
            out.fail("replica restart digest " + digest_hex(p->chain_digest) +
                     " != simulation restart digest " + digest_hex(ref_chain));
        }
    }
    std::printf("workload %s seed %llu: %d traced iterations; digests: "
                "advance %s, replica (%u workers) %s, replica (1 worker) %s\n",
                workload_name(w), static_cast<unsigned long long>(a.seed), k,
                digest_hex(ref).c_str(), rt::thread_pool::global().size(),
                digest_hex(p4.digest).c_str(), digest_hex(p1.digest).c_str());

    // Times over the steady iterations 1..k-1; counts over all k.
    const double steady = k - 1;
    const auto self4 = self_seconds(p4.spans, 1);
    const auto self1 = self_seconds(p1.spans, 1);
    const auto per_step = [&](const std::map<std::string, double>& m,
                              const char* name) {
        const auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second / steady;
    };
    const auto layer = [&](const std::map<std::string, double>& m,
                           std::initializer_list<const char*> names) {
        double s = 0;
        for (const char* n : names) s += per_step(m, n);
        return s;
    };
    const counters& c0 = p4.snaps.front();
    const counters& c1 = p4.snaps[1];
    const counters& cn = p4.snaps.back();
    const auto per_iter = [&](std::uint64_t before, std::uint64_t after) {
        return static_cast<double>(after - before) / k;
    };
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    const double fmm_s = per_step(self4, "fmm.solve");
    const double hydro_s = per_step(self4, "hydro.step");
    const double fmm_flops_step = (cn.fmm_flops - c1.fmm_flops) / steady;
    const double hydro_flops_step = (cn.hydro_flops - c1.hydro_flops) / steady;
    std::size_t solves = 0;
    for (const span& s : p4.spans) {
        solves += std::string_view(s.name) == "fmm.solve";
    }
    out.add("fmm.solve_s", fmm_s, "s");
    out.add("fmm.solves", static_cast<double>(solves) / k, "count");
    out.add("fmm.dag_tasks", per_iter(c0.dag_tasks, cn.dag_tasks), "count");
    out.add("kernel.fmm_flops", fmm_flops_step, "count");
    out.add("kernel.fmm_gflops", ratio(fmm_flops_step, fmm_s) / 1e9, "GFLOP/s");

    out.add("hydro.step_s", hydro_s, "s");
    out.add("hydro.stage_tasks", per_iter(c0.stage_tasks, cn.stage_tasks), "count");
    out.add("hydro.cfl_tasks", per_iter(c0.cfl_tasks, cn.cfl_tasks), "count");
    out.add("hydro.ghost_overlap_pct", static_cast<double>(cn.overlap_pct), "%");
    out.add("kernel.hydro_flops", hydro_flops_step, "count");
    out.add("kernel.hydro_gflops", ratio(hydro_flops_step, hydro_s) / 1e9,
            "GFLOP/s");

    out.add("amr.observe_s", per_step(self4, "amr.observe"), "s");
    out.add("amr.rebalance_s", per_step(self4, "amr.rebalance"), "s");
    out.add("amr.regrid_s", per_step(self4, "amr.regrid"), "s");
    out.add("amr.coarsen_s", per_step(self4, "amr.coarsen"), "s");
    out.add("amr.nodes_changed", static_cast<double>(p4.work.nodes_changed) / k, "count");
    out.add("amr.migration_fraction",
            ratio(p4.work.migration_fraction_sum, static_cast<double>(p4.work.rebalances)),
            "fraction");
    out.add("amr.halo_plan_rebuilds", per_iter(c0.plan_rebuilds, cn.plan_rebuilds),
            "count");
    out.add("amr.halo_plan_hits", per_iter(c0.plan_hits, cn.plan_hits), "count");
    out.add("amr.imbalance_pct",
            ratio(p4.work.imbalance_pct_sum, static_cast<double>(p4.work.rebalances)), "%");

    out.add("io.full_write_s", per_step(self4, "io.full_write"), "s");
    out.add("io.delta_write_s", per_step(self4, "io.delta_write"), "s");
    out.add("io.digest_s", per_step(self4, "io.digest"), "s");
    out.add("io.full_bytes",
            ratio(static_cast<double>(p4.work.full_bytes),
                  static_cast<double>(p4.work.full_writes)),
            "B");
    out.add("io.delta_bytes",
            ratio(static_cast<double>(p4.work.delta_bytes),
                  static_cast<double>(p4.work.delta_writes)),
            "B");
    out.add("io.restart_read_s", p4.restart_read_s, "s");
    out.add("io.transient_write_faults",
            static_cast<double>(cn.write_faults - c0.write_faults), "count");
    out.add("io.checkpoint_crc_failures",
            static_cast<double>(cn.crc_failures - c0.crc_failures), "count");

    const double executed = static_cast<double>(cn.pool.tasks_executed -
                                                c0.pool.tasks_executed);
    out.add("runtime.tasks_executed", executed / k, "count");
    out.add("runtime.steal_pct",
            100.0 * ratio(static_cast<double>(cn.pool.tasks_stolen -
                                              c0.pool.tasks_stolen),
                          executed),
            "%");
    out.add("runtime.tasks_rejected",
            static_cast<double>(cn.pool.tasks_rejected - c0.pool.tasks_rejected),
            "count");

    out.add("support.recycler_hits", per_iter(c0.rec.hits, cn.rec.hits), "count");
    out.add("support.recycler_misses", per_iter(c0.rec.misses, cn.rec.misses),
            "count");
    out.add("support.pooled_mb",
            static_cast<double>(cn.rec.pooled_bytes) / (1024.0 * 1024.0), "MB");

    out.add("scf.fmm_solves", static_cast<double>(scf1.count - scf0.count), "count");
    out.add("scf.fmm_s", scf1.total_seconds - scf0.total_seconds, "s");

    // Tracing overhead and coverage over the steady iterations.
    const std::vector<double> traced_steps = step_seconds(p4.spans);
    const double untraced_p50 =
        median(std::vector<double>(untraced.begin() + 1, untraced.end()));
    const double traced_p50 = median(
        std::vector<double>(traced_steps.begin() + 1, traced_steps.end()));
    double covered = 0;
    for (const auto& [name, s] : self4) {
        if (name != "step") covered += s;
    }
    double root_wall = 0;
    for (std::size_t i = 1; i < traced_steps.size(); ++i) root_wall += traced_steps[i];
    out.add("trace.overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50,
            "%");
    out.add("trace.coverage_pct", 100.0 * ratio(covered, root_wall), "%");

    // 1-worker baseline, per layer.
    const auto speedup = [&](std::initializer_list<const char*> names) {
        return ratio(layer(self1, names), layer(self4, names));
    };
    out.add("fmm.speedup_1to4", speedup({"fmm.solve"}), "x");
    out.add("hydro.speedup_1to4", speedup({"hydro.step"}), "x");
    out.add("amr.speedup_1to4",
            speedup({"amr.observe", "amr.rebalance", "amr.regrid", "amr.coarsen"}),
            "x");
    out.add("io.speedup_1to4",
            speedup({"io.full_write", "io.delta_write", "io.digest"}), "x");
    const std::vector<double> steps1 = step_seconds(p1.spans);
    out.add("step.speedup_1to4",
            ratio(median(std::vector<double>(steps1.begin() + 1, steps1.end())),
                  traced_p50),
            "x");

    std::printf("self seconds per steady iteration (4 workers | 1 worker):\n");
    for (const auto& [name, s] : self4) {
        const auto it = self1.find(name);
        std::printf("  %-16s %10.4f | %10.4f\n",
                    name == "step" ? "(not in a layer)" : name.c_str(), s / steady,
                    it == self1.end() ? 0.0 : it->second / steady);
    }

    if (!a.trace_out.empty()) {
        fs::create_directories(fs::path(a.trace_out).parent_path());
        std::ofstream f(a.trace_out);
        f << "{\n  \"workload\": \"" << workload_name(w) << "\",\n  \"seed\": "
          << a.seed << ",\n";
        write_spans(f, "workers_4", p4, false);
        write_spans(f, "workers_1", p1, true);
        f << "}\n";
    }
}

void print_result(const outcome& out) {
    const bool correct = out.failed == 0 && out.failures.empty();
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const metric& m = out.metrics[i];
        char buf[96];
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int main(int argc, char** argv) {
    args a;
    if (!parse_args(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: octobench --workload <v1309_gravity|blast_hydro|"
                     "v1309_churn> --seed <n> --seconds <1..3600> --trace <0|1> "
                     "--scratch <dir> [--trace-out <file>]\n");
        return 2;
    }
    outcome out;
    try {
        fs::create_directories(a.scratch);
        if (a.trace) {
            run_traced(a, out);
        } else {
            run_measured(a, out);
        }
    } catch (const std::exception& e) {
        out.fail(std::string("exception: ") + e.what());
    }
    for (const metric& m : out.metrics) {
        if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
    }
    // A measured run carries failed_step_fraction in the result's
    // failed/attempted: an end-to-end metric that is 0 on every good run
    // has no relative regression bound. A traced run reports it by name.
    if (a.trace) {
        out.add("failed_step_fraction",
                static_cast<double>(out.failed) /
                    static_cast<double>(std::max(out.attempted, 1L)),
                "fraction");
    }
    for (const std::string& f : out.failures) {
        std::fprintf(stderr, "octobench: check failed: %s\n", f.c_str());
    }
    print_result(out);
    return out.failed == 0 && out.failures.empty() ? 0 : 1;
}
