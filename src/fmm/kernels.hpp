#pragma once
// The same-level FMM interaction kernels — the application hotspot the whole
// paper revolves around (§4.3, §5.1). Two compute kernels, exactly as in
// Octo-Tiger after the multipole-multipole / multipole-monopole merge:
//
//   * monopole_kernel: leaf receiver cells interacting with leaf partner
//     cells (point masses at cell centers) — the cheap, 1/r^3 central-force
//     kernel (paper: 12 flops/interaction). Table-driven: between two leaves
//     the separation is exactly -d h for stencil offset d and cell width h,
//     so each stencil element carries its unit-spacing Green's terms
//     (stencil_element::unit_green) and the kernel sums m * table, scaling
//     by 1/h and 1/h^2 once per cell block — no root or divide per pair.
//   * multipole_kernel: the combined kernel — any receiver interacting with
//     partner cells carrying multipole moments, or multipole receivers with
//     monopole partners (partner moments zero). Computes the order-3 local
//     expansion, with the optional angular-momentum-conserving force term.
//     The body is compiled per am_mode and per pair_class, so the
//     interaction loop neither tests the conservation mode nor computes
//     terms of second moments the launch cannot have.
//
// Both are function templates over the value type T: instantiated with
// simd::dpack (pack<double, default_width>, 8 lanes) for the vectorized CPU
// path and plain double for the scalar path that stands in for the CUDA
// kernel (paper §5.1: "we can simply instance the same function template
// with scalar datatypes and call it within the GPU kernel").
//
// Conservation (paper §4.2/§4.3): leaf-leaf pair forces are exactly
// antisymmetric, because the unit table is odd in d bit for bit. Multipole
// pairs are evaluated from both sides with Green's-function derivatives
// that are odd/even in x, so their accumulated forces are antisymmetric to
// rounding. In conserving mode the non-central component of the
// second-moment force is projected onto the line between the centers of
// mass, making the pair torque vanish identically — our substitution for
// Marcello's expansion-level correction (see DESIGN.md).

#include <cstdint>

#include "fmm/node_data.hpp"
#include "simd/pack.hpp"

namespace octo::fmm {

/// FLOPs per monopole-monopole interaction (per scalar lane). The paper
/// counts 12 for the force-only kernel; ours also accumulates the potential.
inline constexpr std::uint64_t mono_flops_per_interaction = 15;
/// FLOPs per multipole interaction (per scalar lane), hand-counted from the
/// kernel below (paper: 455 with its higher-order expansions).
inline constexpr std::uint64_t multi_flops_per_interaction = 262;

/// Angular-momentum conservation strategy for the multipole force terms.
/// (Linear momentum is conserved to rounding in every mode: pair forces are
/// built from odd/even-symmetric Green's derivatives and the redistribution
/// identities of the L2L pass.)
enum class am_mode {
    /// Standard FMM: most accurate forces; total torque violated at the
    /// truncation level (what the paper's §4.2 says of typical codes).
    none,
    /// Project each pair's moment force onto the line of centers: pair
    /// torque vanishes identically. Cheap; loses the tangential (tidal)
    /// component of the second-moment force.
    central_projection,
    /// Full-accuracy forces; each pair's net torque is deposited (with the
    /// opposite sign) into a per-cell spin-torque ledger that the hydro
    /// solver adds to the evolved spin field — total (orbital + spin)
    /// angular momentum is conserved to rounding. This mirrors Octo-Tiger's
    /// coupling of the gravity solver to the spin degrees of freedom.
    spin_deposit
};

/// Which sides of a multipole launch carry second moments. Leaf cells have
/// q == 0 (solver::compute_leaf_moments), so the node types of a launch fix
/// this, and the kernel skips every term that would multiply a zero q.
/// Leaf-leaf launches use the monopole kernel, so there is no fourth class.
enum class pair_class {
    refined_refined, ///< refined receiver, refined partners: the full body
    refined_leaf,    ///< refined receiver, leaf partners: partner q == 0
    leaf_refined     ///< leaf receiver (q == 0), refined partners
};

struct kernel_options {
    bool use_inner_mask = false;          ///< skip |d|^2<=8 (refined-refined)
    am_mode conserve = am_mode::spin_deposit;
    /// Multipole kernel only. A class other than refined_refined promises
    /// that the omitted second moments are zero; the kernel does not check.
    pair_class pairs = pair_class::refined_refined;
    /// Stencil to apply; nullptr means the regular 1074-element stencil.
    /// The root node passes its full stencil (no parent to defer to).
    const std::vector<stencil_element>* stencil = nullptr;
};

// The kernel bodies themselves live in src/kernel/fmm.{hpp,cpp} (ISSUE 7):
// one templated body per kernel, instantiated per execution-space policy.
// This header keeps the shared option/metadata types and the paper-style
// flop accounting.

/// Number of stencil interactions one kernel launch performs
/// (512 cells x 1074 stencil elements = 549'888; paper §4.3).
std::uint64_t interactions_per_launch(bool inner_masked);

/// Total FLOPs of one kernel launch (for the paper-style accounting).
std::uint64_t mono_kernel_flops();
std::uint64_t multi_kernel_flops(bool inner_masked);

} // namespace octo::fmm
