// Environment-variable helpers. μ-cuDNN is configured through UCUDNN_*
// variables (batch-size policy, workspace limits, cache database path, ...)
// exactly like the paper's implementation.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace ucudnn {

/// Raw lookup; empty optional when unset.
std::optional<std::string> env_raw(const std::string& name);

/// String with default.
std::string env_string(const std::string& name, const std::string& fallback);

/// Integer in [min, max] with default; throws Error(kInvalidValue) on
/// malformed or out-of-range input. A caller that narrows the result passes
/// at most the target type's range, so no value wraps.
std::int64_t env_int(
    const std::string& name, std::int64_t fallback,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max());

/// Size in bytes with default. Accepts suffixes K/M/G (KiB/MiB/GiB),
/// e.g. "64M" == 64 MiB. Throws Error(kInvalidValue) on malformed input.
std::size_t env_bytes(const std::string& name, std::size_t fallback);

/// Boolean with default. Accepts 0/1/true/false/yes/no/on/off.
bool env_bool(const std::string& name, bool fallback);

/// Parses a size-with-suffix string such as "120M" or "8192". Throws
/// Error(kInvalidValue) on a sign, malformed input, or a size past SIZE_MAX.
std::size_t parse_bytes(const std::string& text);

}  // namespace ucudnn
