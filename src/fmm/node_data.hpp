#pragma once
// Per-octree-node FMM storage, struct-of-arrays over the 512 interior cells
// (paper §4.3: stencil-based approach with struct-of-arrays layout).

#include <array>

#include "amr/config.hpp"
#include "fmm/stencil.hpp"
#include "fmm/taylor.hpp"
#include "support/aligned.hpp"

namespace octo::fmm {

using octo::amr::INX;
using octo::amr::INX3;

/// Flat index of interior cell (i, j, k) in the FMM SoA arrays.
constexpr int cell_index(int i, int j, int k) { return (i * INX + j) * INX + k; }

/// Multipole moments of a node's cells: mass, center of mass and raw second
/// moments about the center of mass (xx, xy, xz, yy, yz, zz).
struct node_moments {
    aligned_vector<double> m;
    aligned_vector<double> com[3];
    aligned_vector<double> q[6];

    node_moments() {
        m.assign(INX3, 0.0);
        for (auto& c : com) c.assign(INX3, 0.0);
        for (auto& qq : q) qq.assign(INX3, 0.0);
    }
};

/// Local expansions and the evaluated gravity of a node's cells.
struct node_gravity {
    std::array<aligned_vector<double>, n_taylor> L;
    aligned_vector<double> gx, gy, gz, phi;
    /// Spin-torque ledger (am_mode::spin_deposit): torque to be added to the
    /// cell's spin angular momentum per unit time, in total (not density)
    /// units. Distributed down to leaf cells by the L2L pass.
    aligned_vector<double> tq[3];

    node_gravity() {
        for (auto& l : L) l.assign(INX3, 0.0);
        gx.assign(INX3, 0.0);
        gy.assign(INX3, 0.0);
        gz.assign(INX3, 0.0);
        phi.assign(INX3, 0.0);
        for (auto& q : tq) q.assign(INX3, 0.0);
    }
};

/// Padded partner buffer: the node's own cells plus the halo of all 26
/// same-level neighbors, out to the stencil reach (paper §4.3: "Their input
/// data are the current node's sub-grid as well as all sub-grids of all
/// neighboring nodes as a halo").
struct partner_buffer {
    // Sized for the root-level full stencil (reach 7); the regular
    // 1074-element stencil only reaches 5 (checked in tests).
    static constexpr int reach = 7;
    static constexpr int P = INX + 2 * reach;
    static constexpr int P3 = P * P * P;

    static constexpr int index(int i, int j, int k) {
        return ((i + reach) * P + (j + reach)) * P + (k + reach);
    }

    aligned_vector<double> m;
    aligned_vector<double> x, y, z; // centers of mass (default: cell centers)
    aligned_vector<double> q[6];
    bool any = false; ///< whether any partner cell has nonzero mass
    /// Cell width of the receiver's level. The monopole kernel derives every
    /// separation from it (-d h for stencil offset d) and requires h > 0.
    double h = 0.0;

    // Inclusive bounding box (in padded coordinates) of the cells holding
    // nonzero mass. Defaults to the full padded region, so buffers filled
    // directly (tests, benchmarks) behave exactly as before; the solver
    // resets it to empty and lets its fill path narrow it, which allows the
    // kernels to skip stencil elements whose partner window is entirely
    // massless — their contribution is exactly +0.0 (every term scales with
    // m and q of the partner cell), so the skip is bit-identical.
    int mlo[3] = {-reach, -reach, -reach};
    int mhi[3] = {INX + reach - 1, INX + reach - 1, INX + reach - 1};

    /// Shrink the mass bounds to empty, before filling via include_mass_cell.
    void reset_mass_bounds() {
        for (int a = 0; a < 3; ++a) {
            mlo[a] = INX + reach;
            mhi[a] = -reach - 1;
        }
    }
    /// Grow the mass bounds to cover padded cell (i, j, k).
    void include_mass_cell(int i, int j, int k) {
        const int c[3] = {i, j, k};
        for (int a = 0; a < 3; ++a) {
            if (c[a] < mlo[a]) mlo[a] = c[a];
            if (c[a] > mhi[a]) mhi[a] = c[a];
        }
    }

    partner_buffer() {
        m.assign(P3, 0.0);
        x.assign(P3, 0.0);
        y.assign(P3, 0.0);
        z.assign(P3, 0.0);
        for (auto& qq : q) qq.assign(P3, 0.0);
    }
};

} // namespace octo::fmm
