#include "compiler/compiler.h"

#include "common/clock.h"
#include "compiler/semcheck.h"
#include "compiler/translate.h"
#include "lang/parser.h"

namespace p4runpro::rp {

Result<std::vector<TranslatedProgram>> compile_source(std::string_view source,
                                                      CompileReport* report) {
  CompileReport local;
  CompileReport& r = report != nullptr ? *report : local;
  r = CompileReport{};
  WallTimer timer;
  auto unit = lang::parse(source);
  if (!unit.ok()) {
    r.failed = CompileReport::Layer::Parse;
    r.parse_ms = timer.elapsed_ms();
    return unit.error();
  }
  if (auto s = check_unit(unit.value()); !s.ok()) {
    r.failed = CompileReport::Layer::Check;
    r.parse_ms = timer.elapsed_ms();
    return s.error();
  }
  r.programs = unit.value().programs.size();
  r.parse_ms = timer.elapsed_ms();

  timer.restart();
  std::vector<TranslatedProgram> out;
  out.reserve(unit.value().programs.size());
  for (const auto& decl : unit.value().programs) {
    auto translated = translate(unit.value(), decl);
    if (!translated.ok()) {
      r.failed = CompileReport::Layer::Translate;
      r.translate_ms = timer.elapsed_ms();
      return translated.error();
    }
    out.push_back(std::move(translated).take());
  }
  r.translate_ms = timer.elapsed_ms();
  return out;
}

Result<TranslatedProgram> compile_single(std::string_view source) {
  auto programs = compile_source(source);
  if (!programs.ok()) return programs.error();
  if (programs.value().size() != 1) {
    return Error{"expected exactly one program in source unit", "compiler",
                 ErrorCode::InvalidArgument};
  }
  return std::move(programs.value().front());
}

}  // namespace p4runpro::rp
