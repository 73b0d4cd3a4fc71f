#include "util/status.h"

namespace twrs {

std::string Status::ToString() const {
  const char* label = nullptr;
  switch (code_) {
    case Code::kOk:
      return "OK";
    case Code::kNotFound:
      label = "Not found";
      break;
    case Code::kCorruption:
      label = "Corruption";
      break;
    case Code::kInvalidArgument:
      label = "Invalid argument";
      break;
    case Code::kIOError:
      label = "IO error";
      break;
    case Code::kNotSupported:
      label = "Not supported";
      break;
    case Code::kCancelled:
      label = "Cancelled";
      break;
    case Code::kBusy:
      label = "Busy";
      break;
    case Code::kInternal:
      label = "Internal error";
      break;
  }
  std::string out = label;
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace twrs
