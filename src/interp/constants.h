// Named device-code constants (OpenCL CLK_* flags and the few cuda* enums
// that can appear in device code). Shared by the executor and module
// initializer folding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace bridgecl::interp {

std::optional<uint64_t> NamedConstantValue(const std::string& name);

}  // namespace bridgecl::interp
