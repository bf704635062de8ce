#pragma once
// Taylor-expansion algebra for the volume-based FMM (paper §4.3).
//
// Local expansions of the gravitational potential are stored as the raw
// derivative tensors of phi about a cell's center of mass, truncated at
// third order: 1 + 3 + 6 + 10 = 20 coefficients, mirroring Octo-Tiger's
// taylor<> type. Multipole moments per cell are (mass, center of mass, raw
// second moments); the second-moment trace never contributes because the
// derivative tensors of 1/r are traceless, which is also why a homogeneous
// cube's self-quadrupole drops out — the "locally homogeneous densities"
// assumption the paper cites as the reason Octo-Tiger needs fewer
// flops/cell than PVFMM.
//
// All functions are templates over the value type so the same code is
// instantiated with simd::pack<double, W> for the vectorized CPU kernels and
// with double for the scalar (simulated-GPU) kernels — the Vc/CUDA trick of
// paper §5.1.

#include <array>
#include <cstddef>
#include <cstdint>

#include "simd/pack.hpp"
#include "support/vec3.hpp"

namespace octo::fmm {

/// Number of local-expansion coefficients (orders 0..3).
inline constexpr int n_taylor = 20;

// Coefficient layout:
//   [0]        : phi
//   [1..3]     : d phi / dx_i                       (x, y, z)
//   [4..9]     : d2 phi (xx, xy, xz, yy, yz, zz)
//   [10..19]   : d3 phi (xxx, xxy, xxz, xyy, xyz, xzz, yyy, yyz, yzz, zzz)

// The index tables are namespace-scope constants, not locals of idx2/idx3:
// GCC materializes a function-local constexpr array on the stack at every
// call, which keeps the triangular loops in greens_d3 rolled and pushes the
// expansion through memory. At namespace scope each lookup with constant
// indices folds away, the loops unroll, and D / the accumulators stay in
// registers.
inline constexpr int idx2_table[3][3] = {{4, 5, 6}, {5, 7, 8}, {6, 8, 9}};

// Sorted triples over {0,1,2}: 000,001,002,011,012,022,111,112,122,222
inline constexpr int idx3_table[3][3][3] = {
    {{10, 11, 12}, {11, 13, 14}, {12, 14, 15}},
    {{11, 13, 14}, {13, 16, 17}, {14, 17, 18}},
    {{12, 14, 15}, {14, 17, 18}, {15, 18, 19}}};

// Both tables are invariant under every permutation of their indices, so a
// lookup needs no sorted index. The kernels rely on this: sorting (i, j, k)
// with swaps before the lookup produces an index GCC cannot fold, which
// pushes the unrolled expansion back through the stack.
constexpr bool index_tables_symmetric() {
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j) {
            if (idx2_table[i][j] != idx2_table[j][i]) return false;
            for (int k = 0; k < 3; ++k) {
                const int v = idx3_table[i][j][k];
                if (v != idx3_table[i][k][j] || v != idx3_table[j][i][k] ||
                    v != idx3_table[j][k][i] || v != idx3_table[k][i][j] ||
                    v != idx3_table[k][j][i]) {
                    return false;
                }
            }
        }
    return true;
}
static_assert(index_tables_symmetric(),
              "idx2_table/idx3_table must be invariant under index permutations");

/// Index of the second-derivative coefficient for (i, j), in any order.
constexpr int idx2(int i, int j) { return idx2_table[i][j]; }

/// Index of the third-derivative coefficient for (i, j, k), in any order.
constexpr int idx3(int i, int j, int k) { return idx3_table[i][j][k]; }

/// Multiplicity of the (i,j) unordered pair when summing over ordered pairs.
constexpr double mult2(int i, int j) { return i == j ? 1.0 : 2.0; }
/// Multiplicity of the sorted (i,j,k) triple over ordered triples.
constexpr double mult3(int i, int j, int k) {
    if (i == j && j == k) return 1.0;
    if (i == j || j == k || i == k) return 3.0;
    return 6.0;
}

/// A 20-coefficient expansion with value type T (scalar or SIMD pack).
template <class T>
using expansion = std::array<T, n_taylor>;

/// Derivative tensors of 1/r evaluated at x (r2 = |x|^2 must be > 0):
///   out[0]       = 1/r
///   out[1..3]    = -x_i / r^3
///   out[4..9]    = 3 x_i x_j / r^5 - delta_ij / r^3
///   out[10..19]  = -15 x_i x_j x_k / r^7 + 3 (d_ij x_k + d_jk x_i + d_ik x_j)/r^5
/// Its FLOP count per evaluation is the constant greens_d3_flops below.
template <class T>
inline void greens_d3(const T x[3], T r2, expansion<T>& out) {
    using octo::simd::rsqrt;
    const T rinv = rsqrt(r2);
    const T rinv2 = rinv * rinv;
    const T rinv3 = rinv * rinv2;
    const T rinv5 = rinv3 * rinv2;
    const T rinv7 = rinv5 * rinv2;

    out[0] = rinv;
    for (int i = 0; i < 3; ++i) out[1 + i] = -x[i] * rinv3;

    const T three_rinv5 = T(3.0) * rinv5;
    for (int i = 0; i < 3; ++i) {
        for (int j = i; j < 3; ++j) {
            T v = x[i] * x[j] * three_rinv5;
            if (i == j) v = v - rinv3;
            out[idx2(i, j)] = v;
        }
    }

    const T m15_rinv7 = T(-15.0) * rinv7;
    for (int i = 0; i < 3; ++i) {
        for (int j = i; j < 3; ++j) {
            for (int k = j; k < 3; ++k) {
                T v = x[i] * x[j] * x[k] * m15_rinv7;
                if (i == j) v = v + three_rinv5 * x[k];
                if (j == k) v = v + three_rinv5 * x[i];
                if (i == k && i != j) v = v + three_rinv5 * x[j];
                else if (i == k && i == j) v = v + three_rinv5 * x[j];
                out[idx3(i, j, k)] = v;
            }
        }
    }
}

/// FLOPs executed by greens_d3 per (scalar) evaluation; counted by hand from
/// the code above (rsqrt counted as 2).
inline constexpr std::uint64_t greens_d3_flops = 2 + 4 /*rinv powers*/ + 3 /*D1*/ +
                                                 1 + 6 * 2 + 3 /*D2*/ +
                                                 1 + 10 * 3 + 16 /*D3*/;

/// Evaluate the expansion's value at offset delta from its center.
template <class T>
T evaluate(const expansion<T>& L, const T delta[3]) {
    T v = L[0];
    for (int i = 0; i < 3; ++i) v = v + L[1 + i] * delta[i];
    for (int i = 0; i < 3; ++i)
        for (int j = i; j < 3; ++j) {
            v = v + T(0.5 * mult2(i, j)) * L[idx2(i, j)] * delta[i] * delta[j];
        }
    for (int i = 0; i < 3; ++i)
        for (int j = i; j < 3; ++j)
            for (int k = j; k < 3; ++k) {
                v = v + T(mult3(i, j, k) / 6.0) * L[idx3(i, j, k)] * delta[i] *
                            delta[j] * delta[k];
            }
    return v;
}

/// Gradient of the expansion at offset delta (out[i] = d phi / d x_i).
template <class T>
void evaluate_gradient(const expansion<T>& L, const T delta[3], T out[3]) {
    for (int i = 0; i < 3; ++i) {
        T g = L[1 + i];
        for (int j = 0; j < 3; ++j) g = g + L[idx2(i, j)] * delta[j];
        for (int j = 0; j < 3; ++j)
            for (int k = j; k < 3; ++k) {
                g = g + T(0.5 * mult2(j, k)) * L[idx3(i, j, k)] * delta[j] * delta[k];
            }
        out[i] = g;
    }
}

/// Translate an expansion to a new center at offset delta (L2L operator):
/// accumulates the shifted expansion of `src` into `dst`.
template <class T>
void shift_expansion(const expansion<T>& src, const T delta[3], expansion<T>& dst) {
    dst[0] = dst[0] + evaluate(src, delta);
    T grad[3];
    evaluate_gradient(src, delta, grad);
    for (int i = 0; i < 3; ++i) dst[1 + i] = dst[1 + i] + grad[i];
    // Second derivatives pick up the third-order terms.
    for (int i = 0; i < 3; ++i)
        for (int j = i; j < 3; ++j) {
            T v = src[idx2(i, j)];
            for (int k = 0; k < 3; ++k) v = v + src[idx3(i, j, k)] * delta[k];
            dst[idx2(i, j)] = dst[idx2(i, j)] + v;
        }
    for (int t = 10; t < n_taylor; ++t) dst[t] = dst[t] + src[t];
}

} // namespace octo::fmm
