// Out-of-line cold raise helpers for hot-path error exits.
//
// A `throw Error(std::string(...) + ...)` expression inside a hot loop drags
// the exception-object allocation, the std::string concatenation, and the
// unwind machinery onto the hot frame — and makes the function statically
// reach operator new, which tools/analyze forbids for HZCCL_HOT code.  These
// helpers move all of that behind a single out-of-line HZCCL_COLD call: the
// hot caller passes string literals (and the occasional integer), the cold
// side pays for the formatting, and the analyzer treats the helper as a
// sanctioned exit (tools/analyze/contracts.conf lists them).
//
// Every helper is [[noreturn]], so `if (bad) raise_parse(...);` keeps the
// same control flow as the throw statement it replaces.  Messages are
// byte-identical to the inline throws they replaced — tests and callers
// matching on what() strings keep working.
#pragma once

#include <cstddef>

#include "hzccl/util/contracts.hpp"

namespace hzccl::detail {

/// hzccl::Error(what).
[[noreturn]] HZCCL_COLD void raise_error(const char* what);
/// hzccl::FormatError(what).
[[noreturn]] HZCCL_COLD void raise_format(const char* what);
/// hzccl::ParseError(what).
[[noreturn]] HZCCL_COLD void raise_parse(const char* what);
/// hzccl::CapacityError(what).
[[noreturn]] HZCCL_COLD void raise_capacity(const char* what);
/// hzccl::LayoutMismatchError(what).
[[noreturn]] HZCCL_COLD void raise_layout(const char* what);
/// hzccl::HomomorphicOverflowError(what).
[[noreturn]] HZCCL_COLD void raise_overflow(const char* what);
/// hzccl::QuantizationRangeError(what).
[[noreturn]] HZCCL_COLD void raise_quant_range(const char* what);

/// hzccl::ParseError(prefix + value + suffix) — e.g. FzView's
/// "chunk index <i> out of range".
[[noreturn]] HZCCL_COLD void raise_parse_value(const char* prefix, unsigned long long value,
                                               const char* suffix);

/// ParseError with ByteReader's truncation message:
///   "<stream>: truncated reading <field> (need N bytes, have M)".
[[noreturn]] HZCCL_COLD void raise_truncated(const char* stream, const char* field,
                                             std::size_t need, std::size_t have);
/// CapacityError with ByteWriter's overrun message:
///   "<stream>: capacity exceeded writing <field> (need N bytes, have M)".
[[noreturn]] HZCCL_COLD void raise_write_overrun(const char* stream, const char* field,
                                                 std::size_t need, std::size_t have);
/// ParseError with checked_mul's message: "<what>: size computation overflows".
[[noreturn]] HZCCL_COLD void raise_mul_overflow(const char* what);

}  // namespace hzccl::detail
