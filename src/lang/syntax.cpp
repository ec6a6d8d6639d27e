// The DSL's syntax in one unit, replacing the prototype's PLY Lex and Yacc
// halves (paper §5): the scanner behind lang::lex (lexer.h), the
// recursive-descent parser behind lang::parse (parser.h), which pulls one
// token at a time from the scanner and keeps no token vector, and the
// primitive name table of ast.h.
#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>

#include "lang/ast.h"
#include "lang/lexer.h"
#include "lang/parser.h"

namespace p4runpro::lang {

namespace {

// Character classes of the "C" locale (<cctype>'s isspace, isdigit,
// isalpha), one table load per byte.
enum : std::uint8_t {
  kSpace = 1,   // ' ', \t, \n, \v, \f, \r
  kDigit = 2,
  kAlpha = 4,
  kNumber = 8,  // continues a number: letter, digit or '.'
  kIdent = 16,  // continues an identifier: letter, digit, '_' or '.'
};

constexpr std::array<std::uint8_t, 256> kClass = [] {
  std::array<std::uint8_t, 256> table{};
  for (int c = 0; c < 256; ++c) {
    const bool digit = c >= '0' && c <= '9';
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    std::uint8_t k = 0;
    if (c == ' ' || (c >= '\t' && c <= '\r')) k |= kSpace;
    if (digit) k |= kDigit;
    if (alpha) k |= kAlpha;
    if (digit || alpha || c == '.') k |= kNumber;
    if (digit || alpha || c == '.' || c == '_') k |= kIdent;
    table[static_cast<std::size_t>(c)] = k;
  }
  return table;
}();

[[nodiscard]] bool is(char c, std::uint8_t cls) noexcept {
  return (kClass[static_cast<unsigned char>(c)] & cls) != 0;
}

/// A token as the scanner yields it. `text` views the scanned source and is
/// valid only while that source is; the parser copies a name into the AST
/// when it keeps one, and lang::lex copies each into its Token.
struct Lexeme {
  TokenKind kind = TokenKind::End;
  std::string_view text;  // identifiers and integers; empty for punctuation
  std::uint32_t value = 0;
  int line = 0;
  int column = 0;
};

class Scanner {
 public:
  explicit Scanner(std::string_view src) noexcept : src_(src) {}

  /// Scan the next token into `tok` (in place: a returned copy would be
  /// reloaded whole right after its fields were stored, which stalls). Yields
  /// End at the end of the input and, once a token fails to scan, forever
  /// after; `failed()` and `error()` then say why.
  void next(Lexeme& tok) {
    tok = Lexeme{};
    if (failed() || !skip_trivia()) return;
    tok.line = line_;
    tok.column = column();
    if (pos_ >= src_.size()) return;
    const char c = src_[pos_];
    bool ok = true;
    if (is(c, kDigit)) {
      ok = scan_number(tok);
    } else if (is(c, kAlpha) || c == '_') {
      tok.kind = TokenKind::Identifier;
      tok.text = take_run(kIdent);
    } else {
      ok = scan_punct(tok);
    }
    if (!ok) tok = Lexeme{};
  }

  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  /// The lexical diagnostic, located where scanning stopped (the scanner
  /// does not move after a failure).
  [[nodiscard]] Error error() const {
    return Error{error_, "line " + std::to_string(line_) + ":" + std::to_string(column()),
                 ErrorCode::ParseError};
  }

 private:
  [[nodiscard]] int column() const noexcept {
    return static_cast<int>(pos_ - line_start_) + 1;
  }
  // Diagnostics are cold: keeping them off the hot path keeps it in few
  // cache lines, which is what a compile between two links pays for.
  [[gnu::cold]] bool fail(std::string message) {
    error_ = std::move(message);
    return false;
  }

  /// Consume the run of `cls` bytes at the cursor. The loop runs on locals:
  /// a char load may alias a member, so a loop over members would store and
  /// reload them around every byte.
  std::string_view take_run(std::uint8_t cls) noexcept {
    const char* const s = src_.data();
    std::size_t end = pos_;
    while (end < src_.size() && is(s[end], cls)) ++end;
    const std::string_view run = src_.substr(pos_, end - pos_);
    pos_ = end;
    return run;
  }

  /// Skip whitespace and comments; false on unterminated block comment.
  bool skip_trivia() {
    const char* const s = src_.data();
    const std::size_t size = src_.size();
    std::size_t pos = pos_;
    int line = line_;
    std::size_t line_start = line_start_;
    auto newline = [&](std::size_t at) {
      ++line;
      line_start = at + 1;
    };
    while (pos < size) {
      const char c = s[pos];
      if (is(c, kSpace)) {
        if (c == '\n') newline(pos);
        ++pos;
      } else if (c == '/' && pos + 1 < size && s[pos + 1] == '/') {
        pos = std::min(src_.find('\n', pos), size);
      } else if (c == '/' && pos + 1 < size && s[pos + 1] == '*') {
        const std::size_t close = src_.find("*/", pos + 2);
        for (std::size_t i = pos + 2; i < std::min(close, size); ++i) {
          if (s[i] == '\n') newline(i);
        }
        if (close == std::string_view::npos) {
          pos = size;
          fail("unterminated block comment");
          break;
        }
        pos = close + 2;
      } else {
        break;
      }
    }
    pos_ = pos;
    line_ = line;
    line_start_ = line_start;
    return !failed();
  }

  bool scan_number(Lexeme& tok) {
    tok.kind = TokenKind::Integer;
    // The maximal run of digits, hex letters, '.', 'x', 'b'.
    const std::string_view text = tok.text = take_run(kNumber);
    if (text.find('.') != std::string_view::npos) return parse_ipv4(tok);
    std::uint64_t value = 0;
    std::size_t i = 0;
    int base = 10;
    if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
      base = 16;
      i = 2;
    } else if (text.size() > 2 && text[0] == '0' && (text[1] == 'b' || text[1] == 'B')) {
      base = 2;
      i = 2;
    }
    for (; i < text.size(); ++i) {
      const char c = text[i];
      int digit = base;  // not a digit of any base
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = c - 'A' + 10;
      }
      if (digit >= base) return fail("bad digit in integer literal '" + std::string(text) + "'");
      value = value * static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(digit);
      if (value > 0xffffffffull) {
        return fail("integer literal out of 32-bit range: '" + std::string(text) + "'");
      }
    }
    tok.value = static_cast<std::uint32_t>(value);
    return true;
  }

  bool parse_ipv4(Lexeme& tok) {
    const std::string_view text = tok.text;
    auto malformed = [&] { return fail("malformed IPv4 literal '" + std::string(text) + "'"); };
    std::uint32_t value = 0;
    int octets = 0;
    std::size_t i = 0;
    while (i < text.size()) {
      std::uint32_t octet = 0;
      std::size_t digits = 0;
      while (i < text.size() && is(text[i], kDigit)) {
        octet = octet * 10 + static_cast<std::uint32_t>(text[i] - '0');
        ++digits;
        ++i;
      }
      if (digits == 0 || digits > 3 || octet > 255) return malformed();
      value = (value << 8) | octet;
      ++octets;
      if (i < text.size() && text[i++] != '.') return malformed();
    }
    if (octets != 4) return malformed();
    tok.value = value;
    return true;
  }

  bool scan_punct(Lexeme& tok) {
    const char c = src_[pos_++];
    switch (c) {
      case '@': tok.kind = TokenKind::At; return true;
      case '(': tok.kind = TokenKind::LParen; return true;
      case ')': tok.kind = TokenKind::RParen; return true;
      case '{': tok.kind = TokenKind::LBrace; return true;
      case '}': tok.kind = TokenKind::RBrace; return true;
      case '<': tok.kind = TokenKind::Less; return true;
      case '>': tok.kind = TokenKind::Greater; return true;
      case ',': tok.kind = TokenKind::Comma; return true;
      case ';': tok.kind = TokenKind::Semicolon; return true;
      case ':': tok.kind = TokenKind::Colon; return true;
      default: return fail(std::string("unexpected character '") + c + "'");
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::size_t line_start_ = 0;  // offset of the current line's first byte
  int line_ = 1;
  std::string error_;
};

constexpr std::pair<std::string_view, PrimKind> kPrimNames[] = {
    {"EXTRACT", PrimKind::Extract}, {"MODIFY", PrimKind::Modify},
    {"HASH_5_TUPLE", PrimKind::Hash5Tuple}, {"HASH", PrimKind::Hash},
    {"HASH_5_TUPLE_MEM", PrimKind::Hash5TupleMem}, {"HASH_MEM", PrimKind::HashMem},
    {"BRANCH", PrimKind::Branch}, {"MEMADD", PrimKind::MemAdd},
    {"MEMSUB", PrimKind::MemSub}, {"MEMAND", PrimKind::MemAnd},
    {"MEMOR", PrimKind::MemOr}, {"MEMREAD", PrimKind::MemRead},
    {"MEMWRITE", PrimKind::MemWrite}, {"MEMMAX", PrimKind::MemMax},
    {"LOADI", PrimKind::Loadi}, {"ADD", PrimKind::Add}, {"AND", PrimKind::And},
    {"OR", PrimKind::Or}, {"MAX", PrimKind::Max}, {"MIN", PrimKind::Min},
    {"XOR", PrimKind::Xor}, {"MOVE", PrimKind::Move}, {"NOT", PrimKind::Not},
    {"SUB", PrimKind::Sub}, {"EQUAL", PrimKind::Equal}, {"SGT", PrimKind::Sgt},
    {"SLT", PrimKind::Slt}, {"ADDI", PrimKind::Addi}, {"ANDI", PrimKind::Andi},
    {"XORI", PrimKind::Xori}, {"SUBI", PrimKind::Subi},
    {"FORWARD", PrimKind::Forward}, {"MULTICAST", PrimKind::Multicast},
    {"DROP", PrimKind::Drop}, {"RETURN", PrimKind::Return},
    {"REPORT", PrimKind::Report},
};

// Open-addressing hash table over kPrimNames: a name lookup hashes the name
// once and compares one or two entries.
constexpr std::size_t kPrimSlots = 128;

constexpr std::size_t prim_slot(std::string_view name) noexcept {
  std::size_t h = name.size();
  for (char c : name) h = h * 31 + static_cast<unsigned char>(c);
  return h & (kPrimSlots - 1);
}

// Index + 1 into kPrimNames, 0 for an empty slot.
constexpr std::array<std::uint8_t, kPrimSlots> kPrimTable = [] {
  std::array<std::uint8_t, kPrimSlots> table{};
  for (std::size_t i = 0; i < std::size(kPrimNames); ++i) {
    std::size_t slot = prim_slot(kPrimNames[i].first);
    while (table[slot] != 0) slot = (slot + 1) & (kPrimSlots - 1);
    table[slot] = static_cast<std::uint8_t>(i + 1);
  }
  return table;
}();

[[nodiscard]] std::optional<PrimKind> find_prim(std::string_view name) noexcept {
  for (std::size_t slot = prim_slot(name); kPrimTable[slot] != 0;
       slot = (slot + 1) & (kPrimSlots - 1)) {
    const auto& [n, k] = kPrimNames[kPrimTable[slot] - 1];
    if (name == n) return k;
  }
  return std::nullopt;
}

/// Move the elements pushed onto `stack` since `mark` into a vector of
/// exactly their size, and pop them. Every list of a kind shares one stack
/// per parse (lists nest, so they pop in stack order): a body, argument or
/// condition list costs one exact allocation, not one per doubling.
template <typename T>
std::vector<T> pop_list(std::vector<T>& stack, std::size_t mark) {
  const auto first = stack.begin() + static_cast<std::ptrdiff_t>(mark);
  std::vector<T> list(std::make_move_iterator(first), std::make_move_iterator(stack.end()));
  stack.erase(first, stack.end());
  return list;
}

/// Each parse_* function returns false after recording the diagnostic in
/// `error_`; names are copied into the AST only when it keeps them.
class Parser {
 public:
  explicit Parser(std::string_view source) : scanner_(source) {
    scanner_.next(tok_);
    // Room for the common list lengths: two arguments, three conditions.
    filters_.reserve(2);
    prims_.reserve(8);
    cases_.reserve(4);
    conds_.reserve(3);
    args_.reserve(2);
  }

  bool parse_unit(Unit& unit) {
    while (check(TokenKind::At)) {
      if (!parse_annotation(unit.annotations.emplace_back())) return false;
    }
    while (!check(TokenKind::End)) {
      if (!parse_program(unit.programs.emplace_back())) return false;
    }
    if (unit.programs.empty()) return fail("expected at least one program");
    return true;
  }

  /// A lexical error anywhere in the source outranks a parse error, as if
  /// the whole source had been lexed first: scan what the parse left.
  [[nodiscard]] Status finish_scan() {
    while (tok_.kind != TokenKind::End) scanner_.next(tok_);
    if (scanner_.failed()) return scanner_.error();
    return {};
  }

  [[nodiscard]] const Error& error() const noexcept { return error_; }

 private:
  [[nodiscard]] const Lexeme& peek() const noexcept { return tok_; }
  /// Pull the next token; the stream stays at End.
  void shift() {
    if (tok_.kind != TokenKind::End) scanner_.next(tok_);
  }
  /// Take the current token and pull the next one.
  Lexeme advance() {
    const Lexeme t = tok_;
    shift();
    return t;
  }
  [[nodiscard]] bool check(TokenKind kind) const noexcept { return peek().kind == kind; }
  bool match(TokenKind kind) {
    if (!check(kind)) return false;
    shift();
    return true;
  }

  /// Record a diagnostic located at the current token; returns false.
  [[gnu::cold]] bool fail(std::string message) {
    const Lexeme& t = peek();
    error_ = Error{std::move(message),
                   "line " + std::to_string(t.line) + ":" + std::to_string(t.column),
                   ErrorCode::ParseError};
    return false;
  }
  bool expect(TokenKind kind, const char* what) {
    if (match(kind)) return true;
    const Lexeme& t = peek();
    return fail(std::string("expected ") + what + ", found '" +
                (t.kind == TokenKind::Identifier ? std::string(t.text)
                                                 : token_kind_name(t.kind)) +
                "'");
  }

  bool parse_annotation(Annotation& ann) {
    ann.line = peek().line;
    shift();  // '@'
    if (!check(TokenKind::Identifier)) return fail("expected memory identifier after '@'");
    ann.name = advance().text;
    if (!check(TokenKind::Integer)) return fail("expected memory size after identifier");
    ann.size = advance().value;
    return true;
  }

  bool parse_program(ProgramDecl& prog) {
    prog.line = peek().line;
    if (!check(TokenKind::Identifier) || peek().text != "program") {
      return fail("expected 'program'");
    }
    shift();
    if (!check(TokenKind::Identifier)) return fail("expected program name");
    prog.name = advance().text;
    if (!expect(TokenKind::LParen, "'('")) return false;
    const std::size_t mark = filters_.size();
    do {
      if (!parse_filter(filters_.emplace_back())) return false;
    } while (match(TokenKind::Comma));
    prog.filters = pop_list(filters_, mark);
    return expect(TokenKind::RParen, "')'") && expect(TokenKind::LBrace, "'{'") &&
           parse_body(prog.body) && expect(TokenKind::RBrace, "'}'");
  }

  bool parse_filter(Filter& f) {
    f.line = peek().line;
    if (!expect(TokenKind::Less, "'<'")) return false;
    if (!check(TokenKind::Identifier)) return fail("expected field name in filter");
    f.field = advance().text;
    if (!expect(TokenKind::Comma, "','")) return false;
    if (!check(TokenKind::Integer)) return fail("expected value in filter");
    f.value = advance().value;
    if (!expect(TokenKind::Comma, "','")) return false;
    if (!check(TokenKind::Integer)) return fail("expected mask in filter");
    f.mask = advance().value;
    return expect(TokenKind::Greater, "'>'");
  }

  /// primitive* up to (not consuming) '}'.
  bool parse_body(std::vector<Primitive>& body) {
    const std::size_t mark = prims_.size();
    while (!check(TokenKind::RBrace) && !check(TokenKind::End)) {
      Primitive prim;  // built aside: a nested body grows prims_
      if (!parse_primitive(prim)) return false;
      prims_.push_back(std::move(prim));
    }
    body = pop_list(prims_, mark);
    return true;
  }

  bool parse_primitive(Primitive& prim) {
    prim.line = peek().line;
    if (!check(TokenKind::Identifier)) return fail("expected primitive name");
    const std::string_view name = advance().text;
    const auto kind = find_prim(name);
    if (!kind) return fail("unknown primitive '" + std::string(name) + "'");
    prim.kind = *kind;

    if (prim.kind == PrimKind::Branch) {
      if (!expect(TokenKind::Colon, "':' after BRANCH")) return false;
      const std::size_t mark = cases_.size();
      while (check(TokenKind::Identifier) && peek().text == "case") {
        Case c;  // built aside: its body may hold a nested BRANCH
        if (!parse_case(c)) return false;
        cases_.push_back(std::move(c));
      }
      prim.cases = pop_list(cases_, mark);
      if (prim.cases.empty()) return fail("BRANCH needs at least one case");
      match(TokenKind::Semicolon);  // optional terminator after the last case
      return true;
    }

    if (match(TokenKind::LParen)) {
      if (!check(TokenKind::RParen)) {
        const std::size_t mark = args_.size();
        do {
          if (!parse_argument(args_.emplace_back())) return false;
        } while (match(TokenKind::Comma));
        prim.args = pop_list(args_, mark);
      }
      if (!expect(TokenKind::RParen, "')'")) return false;
    }
    return expect(TokenKind::Semicolon, "';'");
  }

  bool parse_case(Case& c) {
    c.line = peek().line;
    shift();  // 'case'
    if (!expect(TokenKind::LParen, "'(' after case")) return false;
    const std::size_t mark = conds_.size();
    do {
      if (!parse_condition(conds_.emplace_back())) return false;
    } while (match(TokenKind::Comma));
    c.conditions = pop_list(conds_, mark);
    if (!expect(TokenKind::RParen, "')'") || !expect(TokenKind::LBrace, "'{'") ||
        !parse_body(c.body) || !expect(TokenKind::RBrace, "'}'")) {
      return false;
    }
    match(TokenKind::Semicolon);  // case blocks are conventionally ';'-terminated
    return true;
  }

  bool parse_condition(Condition& cond) {
    cond.line = peek().line;
    if (!expect(TokenKind::Less, "'<'")) return false;
    if (!check(TokenKind::Identifier)) return fail("expected register in condition");
    const std::string_view reg = advance().text;
    if (reg == "har") {
      cond.reg = Reg::Har;
    } else if (reg == "sar") {
      cond.reg = Reg::Sar;
    } else if (reg == "mar") {
      cond.reg = Reg::Mar;
    } else {
      return fail("condition must name har, sar or mar (got '" + std::string(reg) + "')");
    }
    if (!expect(TokenKind::Comma, "','")) return false;
    if (!check(TokenKind::Integer)) return fail("expected value in condition");
    cond.value = advance().value;
    if (!expect(TokenKind::Comma, "','")) return false;
    if (!check(TokenKind::Integer)) return fail("expected mask in condition");
    cond.mask = advance().value;
    return expect(TokenKind::Greater, "'>'");
  }

  bool parse_argument(Argument& arg) {
    arg.line = peek().line;
    if (check(TokenKind::Integer)) {
      arg.kind = Argument::Kind::Integer;
      arg.value = advance().value;
      return true;
    }
    if (!check(TokenKind::Identifier)) return fail("expected argument");
    const std::string_view text = advance().text;
    if (text == "har" || text == "sar" || text == "mar") {
      arg.kind = Argument::Kind::Register;
      arg.reg = text == "har" ? Reg::Har : text == "sar" ? Reg::Sar : Reg::Mar;
    } else {
      arg.kind = text.find('.') != std::string_view::npos ? Argument::Kind::Field
                                                          : Argument::Kind::Identifier;
      arg.text = text;
    }
    return true;
  }

  Scanner scanner_;
  Lexeme tok_;  // the current token; the parser looks no further ahead
  Error error_;
  // List stacks (see pop_list).
  std::vector<Filter> filters_;
  std::vector<Primitive> prims_;
  std::vector<Case> cases_;
  std::vector<Condition> conds_;
  std::vector<Argument> args_;
};

}  // namespace

const char* token_kind_name(TokenKind kind) noexcept {
  switch (kind) {
    case TokenKind::Identifier: return "identifier";
    case TokenKind::Integer: return "integer";
    case TokenKind::At: return "@";
    case TokenKind::LParen: return "(";
    case TokenKind::RParen: return ")";
    case TokenKind::LBrace: return "{";
    case TokenKind::RBrace: return "}";
    case TokenKind::Less: return "<";
    case TokenKind::Greater: return ">";
    case TokenKind::Comma: return ",";
    case TokenKind::Semicolon: return ";";
    case TokenKind::Colon: return ":";
    case TokenKind::End: return "<eof>";
  }
  return "?";
}

const char* prim_name(PrimKind kind) noexcept {
  for (const auto& [name, k] : kPrimNames) {
    if (k == kind) return name.data();
  }
  return "?";
}

std::optional<PrimKind> prim_from_name(const std::string& name) noexcept {
  return find_prim(name);
}

bool is_pseudo(PrimKind kind) noexcept {
  switch (kind) {
    case PrimKind::Move:
    case PrimKind::Not:
    case PrimKind::Sub:
    case PrimKind::Equal:
    case PrimKind::Sgt:
    case PrimKind::Slt:
    case PrimKind::Addi:
    case PrimKind::Andi:
    case PrimKind::Xori:
    case PrimKind::Subi:
      return true;
    default:
      return false;
  }
}

Result<std::vector<Token>> lex(std::string_view source) {
  Scanner scanner(source);
  std::vector<Token> tokens;
  tokens.reserve(source.size() / 4 + 1);  // catalog sources run 3-6 bytes a token
  for (Lexeme t;;) {
    scanner.next(t);
    tokens.push_back(Token{t.kind, std::string(t.text), t.value, t.line, t.column});
    if (t.kind == TokenKind::End) break;
  }
  if (scanner.failed()) return scanner.error();
  return tokens;
}

int count_loc(std::string_view source) {
  int loc = 0;
  bool in_block_comment = false;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    const std::size_t eol = source.find('\n', pos);
    const std::string_view line =
        source.substr(pos, eol == std::string_view::npos ? source.size() - pos
                                                         : eol - pos);
    bool has_code = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (in_block_comment) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block_comment = false;
          ++i;
        }
        continue;
      }
      if (line[i] == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
      if (line[i] == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        ++i;
        continue;
      }
      if (!is(line[i], kSpace)) has_code = true;
    }
    if (has_code) ++loc;
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return loc;
}

Result<Unit> parse(std::string_view source) {
  Parser parser(source);
  Unit unit;
  const bool parsed = parser.parse_unit(unit);
  if (auto scanned = parser.finish_scan(); !scanned.ok()) return scanned.error();
  if (!parsed) return parser.error();
  return unit;
}

}  // namespace p4runpro::lang
