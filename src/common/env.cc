#include "common/env.h"

#include <cctype>
#include <cstdlib>
#include <limits>

#include "common/status.h"

namespace ucudnn {

std::optional<std::string> env_raw(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

std::string env_string(const std::string& name, const std::string& fallback) {
  return env_raw(name).value_or(fallback);
}

std::int64_t env_int(const std::string& name, std::int64_t fallback,
                     std::int64_t min, std::int64_t max) {
  const auto raw = env_raw(name);
  if (!raw) return fallback;
  std::int64_t value = 0;
  try {
    std::size_t pos = 0;
    value = std::stoll(*raw, &pos);
    check(pos == raw->size(), Status::kInvalidValue,
          "trailing characters in " + name + "=" + *raw);
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error(Status::kInvalidValue, "malformed integer " + name + "=" + *raw);
  }
  check(value >= min && value <= max, Status::kInvalidValue,
        name + "=" + *raw + " is outside [" + std::to_string(min) + ", " +
            std::to_string(max) + "]");
  return value;
}

std::size_t parse_bytes(const std::string& text) {
  // stoull skips leading blanks and wraps a leading '-'; a size starts with
  // a digit.
  check(!text.empty() && std::isdigit(static_cast<unsigned char>(text[0])),
        Status::kInvalidValue, "malformed size: '" + text + "'");
  std::size_t pos = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (const std::exception&) {
    throw Error(Status::kInvalidValue, "malformed size: " + text);
  }
  std::size_t multiplier = 1;
  if (pos < text.size()) {
    check(pos + 1 == text.size(), Status::kInvalidValue,
          "malformed size suffix: " + text);
    switch (std::toupper(static_cast<unsigned char>(text[pos]))) {
      case 'K': multiplier = std::size_t{1} << 10; break;
      case 'M': multiplier = std::size_t{1} << 20; break;
      case 'G': multiplier = std::size_t{1} << 30; break;
      default:
        throw Error(Status::kInvalidValue, "unknown size suffix: " + text);
    }
  }
  check(value <= std::numeric_limits<std::size_t>::max() / multiplier,
        Status::kInvalidValue, "size out of range: " + text);
  return static_cast<std::size_t>(value) * multiplier;
}

std::size_t env_bytes(const std::string& name, std::size_t fallback) {
  const auto raw = env_raw(name);
  if (!raw) return fallback;
  return parse_bytes(*raw);
}

bool env_bool(const std::string& name, bool fallback) {
  const auto raw = env_raw(name);
  if (!raw) return fallback;
  const std::string& v = *raw;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw Error(Status::kInvalidValue, "malformed boolean " + name + "=" + v);
}

}  // namespace ucudnn
