// Reproduces the §4.3 ablation: the stencil-based struct-of-arrays FMM
// kernels versus the legacy interaction-list array-of-structs organisation.
// Paper: "this led to a speedup of the total application runtime between
// 1.90 and 2.22 on AVX512 CPUs and between 1.23 and 1.35 on AVX2 CPUs" —
// with the FMM at ~40% of total runtime, that corresponds to kernel-level
// speedups of roughly 2-6x. Run on THIS host, real measurements. The
// stencil kernel is table-driven (separations -d h from the stencil, no root
// or divide per pair); the legacy list keeps its per-pair root and divide,
// so the measured ratio includes that difference too.

#include <benchmark/benchmark.h>

#include "fmm/kernels.hpp"
#include "fmm/legacy_ilist.hpp"
#include "fmm/stencil.hpp"
#include "kernel/fmm.hpp"
#include "support/rng.hpp"

using namespace octo;
using namespace octo::fmm;

namespace {

// Leaf-leaf geometry, as the monopole kernel sees it in a solve: every
// center of mass sits at its cell center, the cell width is h.
constexpr double h = 1.0 / INX;

double center(int i) { return (i + 0.5) * h; }

node_moments make_moments() {
    node_moments m;
    xoshiro256 rng(7);
    for (int i = 0; i < INX; ++i)
        for (int j = 0; j < INX; ++j)
            for (int k = 0; k < INX; ++k) {
                const int c = cell_index(i, j, k);
                m.m[c] = rng.uniform(0.1, 1.0);
                m.com[0][c] = center(i);
                m.com[1][c] = center(j);
                m.com[2][c] = center(k);
            }
    return m;
}

partner_buffer make_buffer() {
    constexpr int R = partner_buffer::reach;
    partner_buffer buf;
    xoshiro256 rng(11);
    for (int i = -R; i < INX + R; ++i)
        for (int j = -R; j < INX + R; ++j)
            for (int k = -R; k < INX + R; ++k) {
                const int p = partner_buffer::index(i, j, k);
                buf.m[p] = rng.uniform(0.1, 1.0);
                buf.x[p] = center(i);
                buf.y[p] = center(j);
                buf.z[p] = center(k);
            }
    buf.any = true;
    buf.h = h;
    return buf;
}

void bench_stencil_soa_vectorized(benchmark::State& state) {
    const auto buf = make_buffer();
    node_gravity out;
    kernel_options opt;
    opt.stencil = &interaction_stencil();
    for (auto _ : state) {
        kernel::fmm_monopole<kernel::exec::simd<simd::default_width>>(buf, opt, 0, out);
        benchmark::DoNotOptimize(out.L[0][0]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(interactions_per_launch(false)));
}
BENCHMARK(bench_stencil_soa_vectorized);

void bench_stencil_soa_scalar(benchmark::State& state) {
    const auto buf = make_buffer();
    node_gravity out;
    kernel_options opt;
    opt.stencil = &interaction_stencil();
    for (auto _ : state) {
        kernel::fmm_monopole<kernel::exec::scalar>(buf, opt, 0, out);
        benchmark::DoNotOptimize(out.L[0][0]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(interactions_per_launch(false)));
}
BENCHMARK(bench_stencil_soa_scalar);

void bench_legacy_ilist_aos(benchmark::State& state) {
    const auto mom = make_moments();
    const auto buf = make_buffer();
    auto receivers = to_aos_receivers(mom);
    const auto partners = to_aos_partners(buf);
    const auto list = build_interaction_list();
    for (auto _ : state) {
        legacy_monopole_kernel(list, receivers, partners);
        benchmark::DoNotOptimize(receivers[0].gx);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<long>(list.pairs.size()));
}
BENCHMARK(bench_legacy_ilist_aos);

} // namespace

BENCHMARK_MAIN();
