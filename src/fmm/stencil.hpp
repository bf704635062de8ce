#pragma once
// The same-level interaction stencil (paper §4.3): "each cell interacts with
// 1074 of its close neighbors".
//
// Derivation (two-level opening criterion, verified to give exactly 1074
// offsets): offset d is in the stencil iff the interaction could NOT have
// been computed one level up, i.e. iff for some child sub-position
// c in {0,1}^3 the parent-level offset p = floor((c + d)/2) satisfies
// |p|^2 <= 8 ("parents not well separated"). Offsets with |d|^2 <= 8 are
// additionally flagged: when BOTH interaction partners are refined, these
// pairs are deferred to the children (they will appear in the child-level
// stencil), so the multipole-multipole kernel masks them out; when either
// partner is a leaf there is no finer level and the pair is computed here.
// This makes every cell pair in the tree interact exactly once.

#include <array>
#include <cstdint>
#include <vector>

#include "support/vec3.hpp"

namespace octo::fmm {

struct stencil_element {
    std::int8_t dx, dy, dz;
    /// True when |d|^2 <= 8: skipped for refined-refined pairs (handled at
    /// the next finer level). This deferral is parity-free: the child pairs'
    /// actual parent offset IS d, so they are selected at the child level
    /// exactly when |d|^2 <= 8.
    bool inner;
    /// Per-receiver-parity inclusion mask. The *actual* parent-level offset
    /// of a cell pair is p_i = floor((c_i + d_i)/2) where c is the receiver
    /// cell's coordinate parity; whether the parents are well separated
    /// therefore depends on that parity for boundary offsets. Bit
    /// (cx | cy<<1 | cz<<2) is set iff the pair is computed at this level
    /// for a receiver with parities (cx, cy, cz). The mask is symmetric
    /// under (c, d) -> (parity of c+d, -d), so both halves of a pair agree
    /// on the level that owns it — the exactly-once property the
    /// correctness tests verify.
    std::uint8_t parity_mask;
    /// Unit-spacing monopole Green's terms of the pair separation -d:
    /// {1/|d|, -dx/|d|^3, -dy/|d|^3, -dz/|d|^3}. Between two leaves (centers
    /// of mass at the cell centers, no periodic wrap) the separation is
    /// exactly -d h, so the monopole kernel scales sums of m * unit_green by
    /// 1/h and 1/h^2 instead of taking a root and a divide per pair. The
    /// table is odd in d, bit for bit, so pair forces are exactly
    /// antisymmetric.
    std::array<double, 4> unit_green;
};

/// The full same-level stencil; size() == 1074.
const std::vector<stencil_element>& interaction_stencil();

/// Number of elements with the `inner` flag set (the refined-refined mask).
int inner_stencil_size();

/// Maximum |component| over all stencil offsets (needed to size the padded
/// neighbor buffers; equals 5 for the 1074-element stencil).
int stencil_reach();

/// The stencil used at the ROOT level: all offsets in [-7,7]^3 (minus the
/// origin), inner-flagged by the same |d|^2 <= 8 rule. The root has no
/// parent level to defer far pairs to, so it computes everything the
/// regular stencil would drop.
const std::vector<stencil_element>& root_stencil();

} // namespace octo::fmm
