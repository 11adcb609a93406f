// ConvProblem: a fully-specified 2-D convolution instance (shapes + geometry)
// shared by every algorithm implementation and by the μ-cuDNN optimizer.
#pragma once

#include <cstdint>
#include <string>

#include "common/mathutil.h"
#include "tensor/tensor.h"

namespace ucudnn {

/// The three convolution-related cuDNN operations (§II of the paper).
enum class ConvKernelType { kForward, kBackwardData, kBackwardFilter };

constexpr std::string_view to_string(ConvKernelType t) noexcept {
  switch (t) {
    case ConvKernelType::kForward: return "Forward";
    case ConvKernelType::kBackwardData: return "BackwardData";
    case ConvKernelType::kBackwardFilter: return "BackwardFilter";
  }
  return "Unknown";
}

namespace kernels {

/// A concrete convolution problem. `x` is the input activation shape (its
/// `n` is the batch — or micro-batch — size), `w` the filter bank, `geom`
/// the padding/stride/dilation, and `y` the derived output shape.
struct ConvProblem {
  TensorShape x;
  FilterDesc w;
  ConvGeometry geom;
  TensorShape y;

  ConvProblem() = default;
  ConvProblem(const TensorShape& x_, const FilterDesc& w_,
              const ConvGeometry& geom_)
      : x(x_), w(w_), geom(geom_), y(geom_.output_shape(x_, w_)) {}

  std::int64_t batch() const noexcept { return x.n; }

  /// Same problem with a different (micro-)batch size.
  ConvProblem with_batch(std::int64_t micro_batch) const {
    return ConvProblem(x.with_batch(micro_batch), w, geom);
  }

  bool operator==(const ConvProblem&) const = default;

  /// Multiply-accumulate count of the mathematical convolution (used by the
  /// device performance model as the baseline work measure).
  double macs() const noexcept {
    return static_cast<double>(y.n) * static_cast<double>(y.c) *
           static_cast<double>(y.h) * static_cast<double>(y.w) *
           static_cast<double>(w.c) * static_cast<double>(w.r) *
           static_cast<double>(w.s);
  }

  bool is_grouped() const noexcept { return geom.groups > 1; }
  /// Output channels per group.
  std::int64_t k_per_group() const noexcept { return w.k / geom.groups; }

  bool is_unit_stride() const noexcept {
    return geom.stride_h == 1 && geom.stride_w == 1;
  }
  bool is_unit_dilation() const noexcept {
    return geom.dilation_h == 1 && geom.dilation_w == 1;
  }

  std::string to_string() const {
    return "x" + x.to_string() + " w" + w.to_string() + " pad(" +
           std::to_string(geom.pad_h) + "," + std::to_string(geom.pad_w) +
           ") stride(" + std::to_string(geom.stride_h) + "," +
           std::to_string(geom.stride_w) + ")" +
           (geom.groups > 1 ? " groups(" + std::to_string(geom.groups) + ")"
                            : "");
  }

  /// Stable hash over all parameters (used by the configuration cache).
  std::size_t hash() const noexcept {
    std::size_t seed = 0;
    for (std::int64_t v :
         {x.n, x.c, x.h, x.w, w.k, w.r, w.s, geom.pad_h, geom.pad_w,
          geom.stride_h, geom.stride_w, geom.dilation_h, geom.dilation_w,
          geom.groups, static_cast<std::int64_t>(geom.mode)}) {
      hash_combine(seed, static_cast<std::size_t>(v));
    }
    return seed;
  }
};

/// Element counts of a kernel's three float operands, in the roles
/// kernels::execute() takes them:
///   Forward:        a = x,  b = w,  out = y
///   BackwardData:   a = dy, b = w,  out = dx
///   BackwardFilter: a = x,  b = dy, out = dw
struct OperandCounts {
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t out = 0;
};

constexpr OperandCounts operand_counts(ConvKernelType type,
                                       const ConvProblem& p) noexcept {
  switch (type) {
    case ConvKernelType::kForward:
      return {p.x.count(), p.w.count(), p.y.count()};
    case ConvKernelType::kBackwardData:
      return {p.y.count(), p.w.count(), p.x.count()};
    case ConvKernelType::kBackwardFilter:
      return {p.x.count(), p.y.count(), p.w.count()};
  }
  return {};
}

}  // namespace kernels
}  // namespace ucudnn
