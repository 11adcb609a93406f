#include "frameworks/caffepp/blob.h"

namespace ucudnn::caffepp {

Blob::Blob(std::shared_ptr<device::Device> dev, std::string name,
           const TensorShape& shape, bool with_diff)
    : dev_(std::move(dev)),
      name_(std::move(name)),
      shape_(shape),
      with_diff_(with_diff) {
  data_ = static_cast<float*>(dev_->allocate(bytes(), name_ + ":data"));
}

float* Blob::diff() {
  if (diff_ == nullptr && with_diff_) {
    diff_ = static_cast<float*>(dev_->allocate(bytes(), name_ + ":diff"));
    fill_constant(diff_, count(), 0.0f);
  }
  return diff_;
}

Blob::~Blob() {
  dev_->deallocate(data_);
  dev_->deallocate(diff_);
}

}  // namespace ucudnn::caffepp
