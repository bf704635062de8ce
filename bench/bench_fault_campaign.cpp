// Seeded fault-campaign harness (ISSUE 5): drives a burst of active messages
// through both parcelports decorated with the deterministic fault injector,
// and reports what the reliability protocol paid to deliver exactly-once,
// in-order anyway — retransmits, duplicate/corruption drops, reorder
// buffering, and the throughput hit relative to a clean transport.
//
//   ./bench_fault_campaign [seeds] [parcels] [loss%]
//
// Arguments are whole integers (loss% in 0..60); anything else exits 2 with
// a usage line.
//
// Every row is replayable: the seed fully determines the fault schedule.

#include <atomic>
#include <cstdio>

#include "bench_args.hpp"
#include "dist/locality.hpp"
#include "net/faulty.hpp"
#include "net/parcelport.hpp"
#include "support/timer.hpp"

using namespace octo;
using namespace octo::dist;

namespace {

struct campaign_result {
    double seconds = 0;
    port_stats net;
    support::fault_stats injected;
    bool ok = false;
};

campaign_result run_campaign(parcelport_factory inner, std::uint64_t seed,
                             double loss, int parcels) {
    support::fault_config cfg;
    cfg.seed = seed;
    cfg.drop_prob = loss;
    cfg.dup_prob = loss;
    cfg.reorder_prob = 1.5 * loss;
    cfg.delay_prob = loss;
    cfg.corrupt_prob = 0.5 * loss;
    runtime rt(4, net::make_faulty_port(std::move(inner), cfg), 2);

    std::atomic<long> sum{0};
    const auto acc = rt.register_action("acc", [&](int, iarchive a) {
        sum.fetch_add(a.read<int>(), std::memory_order_relaxed);
    });
    long expect = 0;
    octo::stopwatch sw;
    for (int i = 0; i < parcels; ++i) {
        oarchive a;
        a.write(i);
        expect += i;
        rt.apply(i % 4, acc, std::move(a));
    }
    campaign_result r;
    r.ok = rt.wait_quiet_for(std::chrono::seconds(120)) &&
           sum.load() == expect && rt.error_count() == 0;
    r.seconds = sw.seconds();
    r.net = rt.net_stats();
    auto* fp = dynamic_cast<net::faulty_parcelport*>(&rt.port());
    if (fp != nullptr) r.injected = fp->injector().stats();
    return r;
}

void report(const char* label, std::uint64_t seed, int parcels,
            const campaign_result& r) {
    std::printf("  %-10s seed %3llu: %7.1f ms, %7.0f msg/s | injected "
                "d/D/r/c %llu/%llu/%llu/%llu | retries %llu, dups dropped "
                "%llu, corrupt dropped %llu, reordered %llu | %s\n",
                label, static_cast<unsigned long long>(seed),
                1e3 * r.seconds, parcels / r.seconds,
                static_cast<unsigned long long>(r.injected.drops),
                static_cast<unsigned long long>(r.injected.dups),
                static_cast<unsigned long long>(r.injected.reorders),
                static_cast<unsigned long long>(r.injected.corruptions),
                static_cast<unsigned long long>(r.net.retries),
                static_cast<unsigned long long>(r.net.dups_dropped),
                static_cast<unsigned long long>(r.net.corrupt_dropped),
                static_cast<unsigned long long>(r.net.reorders_buffered),
                r.ok ? "delivered exactly-once" : "FAILED");
}

constexpr const char* usage =
    "[seeds 1..1000] [parcels 1..10000000] [loss% 0..60]";

} // namespace

int main(int argc, char** argv) {
    const int seeds = bench::int_arg(argc, argv, 1, 3, 1, 1000, usage);
    const int parcels = bench::int_arg(argc, argv, 2, 2000, 1, 10000000, usage);
    const double loss = bench::int_arg(argc, argv, 3, 10, 0, 60, usage) / 100.0;

    std::printf("=== Seeded fault campaign: %d parcels, %.0f%% loss/dup, "
                "%d seeds ===\n\n",
                parcels, 100.0 * loss, seeds);
    bool all_ok = true;
    for (int s = 1; s <= seeds; ++s) {
        const auto seed = static_cast<std::uint64_t>(s);
        const auto mpi = run_campaign(net::make_mpi_port(), seed, loss, parcels);
        report("mpi", seed, parcels, mpi);
        const auto lf =
            run_campaign(net::make_libfabric_port(), seed, loss, parcels);
        report("libfabric", seed, parcels, lf);
        all_ok = all_ok && mpi.ok && lf.ok;
    }

    // The fault-free baseline, for the overhead comparison.
    const auto clean = run_campaign(net::make_mpi_port(), 1, 0.0, parcels);
    std::printf("\n  fault-free mpi baseline: %.1f ms (%0.f msg/s), "
                "0 retries\n",
                1e3 * clean.seconds, parcels / clean.seconds);
    if (!all_ok || !clean.ok) {
        std::printf("\nFAULT CAMPAIGN FAILED\n");
        return 1;
    }
    std::printf("\nall campaigns delivered exactly-once, in-order\n");
    return 0;
}
