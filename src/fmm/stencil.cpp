#include "fmm/stencil.hpp"

#include <algorithm>
#include <cmath>

namespace octo::fmm {
namespace {

constexpr int well_separated_sq = 8; // |p|^2 > 8 => parents well separated

stencil_element make_element(int dx, int dy, int dz, std::uint8_t mask) {
    const int d2 = dx * dx + dy * dy + dz * dz;
    const double rinv = 1.0 / std::sqrt(static_cast<double>(d2));
    const double rinv3 = rinv * rinv * rinv;
    return {static_cast<std::int8_t>(dx),
            static_cast<std::int8_t>(dy),
            static_cast<std::int8_t>(dz),
            d2 <= well_separated_sq,
            mask,
            {rinv, -dx * rinv3, -dy * rinv3, -dz * rinv3}};
}

std::vector<stencil_element> build_stencil() {
    std::vector<stencil_element> out;
    for (int dx = -8; dx <= 8; ++dx) {
        for (int dy = -8; dy <= 8; ++dy) {
            for (int dz = -8; dz <= 8; ++dz) {
                if (dx == 0 && dy == 0 && dz == 0) continue;
                std::uint8_t mask = 0;
                for (int cx = 0; cx < 2; ++cx)
                    for (int cy = 0; cy < 2; ++cy)
                        for (int cz = 0; cz < 2; ++cz) {
                            // floor division for possibly negative values
                            auto fd = [](int a) {
                                return a >= 0 ? a / 2 : -((-a + 1) / 2);
                            };
                            const int px = fd(cx + dx);
                            const int py = fd(cy + dy);
                            const int pz = fd(cz + dz);
                            if (px * px + py * py + pz * pz <= well_separated_sq) {
                                mask |= static_cast<std::uint8_t>(
                                    1u << (cx | (cy << 1) | (cz << 2)));
                            }
                        }
                if (mask == 0) continue;
                out.push_back(make_element(dx, dy, dz, mask));
            }
        }
    }
    // Deterministic order: by z fastest (matches the SoA memory layout walk).
    std::sort(out.begin(), out.end(), [](const stencil_element& a,
                                         const stencil_element& b) {
        if (a.dx != b.dx) return a.dx < b.dx;
        if (a.dy != b.dy) return a.dy < b.dy;
        return a.dz < b.dz;
    });
    return out;
}

} // namespace

const std::vector<stencil_element>& interaction_stencil() {
    static const std::vector<stencil_element> s = build_stencil();
    return s;
}

int inner_stencil_size() {
    const auto& s = interaction_stencil();
    return static_cast<int>(
        std::count_if(s.begin(), s.end(), [](const stencil_element& e) { return e.inner; }));
}

const std::vector<stencil_element>& root_stencil() {
    static const std::vector<stencil_element> s = [] {
        std::vector<stencil_element> out;
        for (int dx = -7; dx <= 7; ++dx)
            for (int dy = -7; dy <= 7; ++dy)
                for (int dz = -7; dz <= 7; ++dz) {
                    if (dx == 0 && dy == 0 && dz == 0) continue;
                    // The root owns every pair not deferred to its children:
                    // all parities included.
                    out.push_back(make_element(dx, dy, dz, 0xff));
                }
        return out;
    }();
    return s;
}

int stencil_reach() {
    int r = 0;
    for (const auto& e : interaction_stencil()) {
        r = std::max({r, std::abs(static_cast<int>(e.dx)),
                      std::abs(static_cast<int>(e.dy)),
                      std::abs(static_cast<int>(e.dz))});
    }
    return r;
}

} // namespace octo::fmm
