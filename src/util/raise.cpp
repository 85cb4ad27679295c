// Cold side of the hot-path raise helpers (see util/raise.hpp).  All string
// formatting and exception construction lives here, out of line, so HZCCL_HOT
// callers never statically reach operator new or __cxa_throw themselves —
// tools/analyze treats these symbols as sanctioned cold exits.
#include "hzccl/util/raise.hpp"

#include <string>

#include "hzccl/util/error.hpp"

namespace hzccl::detail {

void raise_error(const char* what) { throw Error(what); }

void raise_format(const char* what) { throw FormatError(what); }

void raise_parse(const char* what) { throw ParseError(what); }

void raise_capacity(const char* what) { throw CapacityError(what); }

void raise_layout(const char* what) { throw LayoutMismatchError(what); }

void raise_overflow(const char* what) { throw HomomorphicOverflowError(what); }

void raise_quant_range(const char* what) { throw QuantizationRangeError(what); }

void raise_parse_value(const char* prefix, unsigned long long value, const char* suffix) {
  throw ParseError(prefix + std::to_string(value) + suffix);
}

void raise_truncated(const char* stream, const char* field, std::size_t need, std::size_t have) {
  throw ParseError(std::string(stream) + ": truncated reading " + field + " (need " +
                   std::to_string(need) + " bytes, have " + std::to_string(have) + ")");
}

void raise_write_overrun(const char* stream, const char* field, std::size_t need,
                         std::size_t have) {
  throw CapacityError(std::string(stream) + ": capacity exceeded writing " + field + " (need " +
                      std::to_string(need) + " bytes, have " + std::to_string(have) + ")");
}

void raise_mul_overflow(const char* what) {
  throw ParseError(std::string(what) + ": size computation overflows");
}

}  // namespace hzccl::detail
