// Compiler facade: source text -> checked, translated programs. The
// allocation step is separate (solver.h) because it depends on the live
// resource snapshot; the controller drives the full pipeline
// parse -> check -> translate -> allocate -> generate entries -> update.
//
// The compiler is pure: it reads only its arguments, touches no shared
// state and reports nothing itself, so any thread may call it. What a
// compile measured comes back in a CompileReport; the controller records
// it (the "parse" and "translate" spans, the compiler.* counters) under its
// session lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "compiler/ir.h"

namespace p4runpro::rp {

/// What one compile_source call measured, for its caller to report.
struct CompileReport {
  /// The layer that rejected the source, if any.
  enum class Layer : std::uint8_t { None, Parse, Check, Translate };
  Layer failed = Layer::None;
  /// Programs the unit declares; known once it parsed and checked.
  std::size_t programs = 0;
  double parse_ms = 0.0;      ///< wall ms of parse + semantic check
  double translate_ms = 0.0;  ///< wall ms of translation; 0 if it never ran

  /// True when parsing and checking passed, so translation ran.
  [[nodiscard]] bool checked() const noexcept {
    return failed == Layer::None || failed == Layer::Translate;
  }
};

/// Parse, check and translate every program in a source unit. With a
/// `report`, also says what each layer took and which one failed.
[[nodiscard]] Result<std::vector<TranslatedProgram>> compile_source(
    std::string_view source, CompileReport* report = nullptr);

/// Convenience: compile a unit expected to contain exactly one program.
[[nodiscard]] Result<TranslatedProgram> compile_single(std::string_view source);

}  // namespace p4runpro::rp
