// The SIMD tier name, kept only for perfbench's `simd_tier` provenance line.
// No kernel in the library dispatches on an ISA: every path is scalar.
#pragma once

namespace memento::simd {

enum class tier { scalar };

[[nodiscard]] constexpr const char* tier_name(tier) noexcept { return "scalar"; }

[[nodiscard]] constexpr tier active() noexcept { return tier::scalar; }

}  // namespace memento::simd
