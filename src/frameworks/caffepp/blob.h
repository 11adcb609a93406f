// Blob: a named (data, diff) tensor pair allocated through the Device so
// that every byte shows up in the per-layer memory accounting (Fig. 12).
#pragma once

#include <memory>
#include <string>

#include "device/device.h"
#include "tensor/tensor.h"

namespace ucudnn::caffepp {

class Blob {
 public:
  /// Allocates data (+ diff) on `dev` under the tag "<name>:data"/":diff".
  Blob(std::shared_ptr<device::Device> dev, std::string name,
       const TensorShape& shape, bool with_diff = true);
  ~Blob();

  Blob(const Blob&) = delete;
  Blob& operator=(const Blob&) = delete;

  const std::string& name() const noexcept { return name_; }
  const TensorShape& shape() const noexcept { return shape_; }
  std::int64_t count() const noexcept { return shape_.count(); }
  std::size_t bytes() const noexcept { return shape_.bytes(); }

  float* data() noexcept { return data_; }
  const float* data() const noexcept { return data_; }
  /// Diff storage is allocated, zeroed, on first use: Virtual-mode runs
  /// never touch diffs, so their tracked footprint matches the paper's "one
  /// forward propagation" memory accounting (Fig. 12).
  float* diff();
  bool has_diff() const noexcept { return with_diff_; }

  TensorDesc desc() const noexcept { return TensorDesc{shape_}; }

 private:
  std::shared_ptr<device::Device> dev_;
  std::string name_;
  TensorShape shape_;
  bool with_diff_ = true;
  float* data_ = nullptr;
  float* diff_ = nullptr;
};

}  // namespace ucudnn::caffepp
