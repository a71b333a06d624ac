//===- ConstraintParser.cpp - Textual constraint syntax ------------------===//

#include "core/ConstraintParser.h"

#include "support/Stats.h"

#include <atomic>
#include <cctype>
#include <charconv>

using namespace retypd;

namespace {

/// Minimal cursor over a string_view.
class Cursor {
public:
  explicit Cursor(std::string_view S) : S(S) {}

  void skipSpace() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= S.size();
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool consume(std::string_view Tok) {
    skipSpace();
    if (S.substr(Pos, Tok.size()) == Tok) {
      Pos += Tok.size();
      return true;
    }
    return false;
  }

  /// Reads an identifier: [A-Za-z0-9_#$@:!-]+ (no dots — dots separate
  /// labels). Bytes with the high bit set are accepted so UTF-8 names —
  /// notably the τ$... existentials of serialized schemes — round-trip.
  std::string_view ident() {
    skipSpace();
    size_t Start = Pos;
    while (Pos < S.size()) {
      char C = S[Pos];
      if (std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
          C == '#' || C == '$' || C == '@' || C == ':' || C == '-' ||
          C == '!' || static_cast<unsigned char>(C) >= 0x80)
        ++Pos;
      else
        break;
    }
    return S.substr(Start, Pos - Start);
  }

  std::string_view rest() const { return S.substr(Pos); }

private:
  std::string_view S;
  size_t Pos = 0;
};

bool parseInt(std::string_view S, int64_t &Out) {
  if (S.empty())
    return false;
  auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), Out);
  return Ec == std::errc() && Ptr == S.data() + S.size();
}

/// Parses one label token (without the leading dot), e.g. "load", "in0",
/// "s32@4".
bool parseLabel(std::string_view Tok, Label &Out) {
  if (Tok == "load") {
    Out = Label::load();
    return true;
  }
  if (Tok == "store") {
    Out = Label::store();
    return true;
  }
  if (Tok.starts_with("in")) {
    int64_t Idx = 0;
    if (!parseInt(Tok.substr(2), Idx) || Idx < 0)
      return false;
    Out = Label::in(static_cast<uint32_t>(Idx));
    return true;
  }
  if (Tok == "out") {
    Out = Label::out();
    return true;
  }
  if (Tok.starts_with("out")) {
    int64_t Idx = 0;
    if (!parseInt(Tok.substr(3), Idx) || Idx < 0)
      return false;
    Out = Label::out(static_cast<uint32_t>(Idx));
    return true;
  }
  if (Tok.size() > 1 && (Tok[0] == 's' || Tok[0] == 'u')) {
    size_t At = Tok.find('@');
    if (At == std::string_view::npos)
      return false;
    int64_t Bits = 0, Off = 0;
    if (!parseInt(Tok.substr(1, At - 1), Bits) ||
        !parseInt(Tok.substr(At + 1), Off) || Bits <= 0 || Bits > 0xffff)
      return false;
    Out = Label::field(static_cast<uint16_t>(Bits),
                       static_cast<int32_t>(Off));
    return true;
  }
  return false;
}

} // namespace

std::optional<DerivedTypeVariable>
ConstraintParser::parseDtv(std::string_view Text) {
  Cursor C(Text);
  std::string_view BaseName = C.ident();
  if (BaseName.empty()) {
    Err = "expected a type variable, found '" + std::string(C.rest()) + "'";
    return std::nullopt;
  }

  TypeVariable Base;
  if (auto E = Lat.lookup(BaseName)) {
    Base = TypeVariable::constant(*E);
  } else if (BaseName[0] == '#') {
    Err = "unknown semantic tag '" + std::string(BaseName) + "'";
    return std::nullopt;
  } else {
    Base = TypeVariable::var(Syms.intern(BaseName));
  }

  std::vector<Label> Word;
  while (C.consume('.')) {
    std::string_view Tok = C.ident();
    Label L;
    if (!parseLabel(Tok, L)) {
      Err = "bad field label '." + std::string(Tok) + "'";
      return std::nullopt;
    }
    Word.push_back(L);
  }
  if (!C.atEnd()) {
    Err = "trailing junk after type variable: '" + std::string(C.rest()) +
          "'";
    return std::nullopt;
  }
  return DerivedTypeVariable(Base, std::move(Word));
}

bool ConstraintParser::fail(unsigned LineNo, const std::string &Msg) {
  Err = "line " + std::to_string(LineNo) + ": " + Msg;
  return false;
}

bool ConstraintParser::parseLine(std::string_view Line, unsigned LineNo,
                                 ConstraintSet &Out) {
  // Strip comments. A ';' only starts a comment outside parentheses, since
  // additive constraints use it as a separator: add(a, b; c).
  int Depth = 0;
  for (size_t I = 0; I < Line.size(); ++I) {
    if (Line[I] == '(')
      ++Depth;
    else if (Line[I] == ')')
      --Depth;
    else if (Line[I] == ';' && Depth == 0) {
      Line = Line.substr(0, I);
      break;
    }
  }
  size_t Slashes = Line.find("//");
  if (Slashes != std::string_view::npos)
    Line = Line.substr(0, Slashes);

  // Trim.
  while (!Line.empty() &&
         std::isspace(static_cast<unsigned char>(Line.front())))
    Line.remove_prefix(1);
  while (!Line.empty() &&
         std::isspace(static_cast<unsigned char>(Line.back())))
    Line.remove_suffix(1);
  if (Line.empty())
    return true;

  // var X
  if (Line.starts_with("var ")) {
    auto V = parseDtv(Line.substr(4));
    if (!V)
      return fail(LineNo, Err);
    Out.addVar(std::move(*V));
    return true;
  }

  // add(a, b; c) / sub(a, b; c)
  if (Line.starts_with("add(") || Line.starts_with("sub(")) {
    bool IsSub = Line.starts_with("sub(");
    if (!Line.ends_with(")"))
      return fail(LineNo, "expected ')' at end of additive constraint");
    std::string_view Body = Line.substr(4, Line.size() - 5);
    size_t Comma = Body.find(',');
    size_t SemiSep = Body.find(';');
    if (Comma == std::string_view::npos || SemiSep == std::string_view::npos ||
        SemiSep < Comma)
      return fail(LineNo, "expected add(x, y; z)");
    auto X = parseDtv(Body.substr(0, Comma));
    if (!X)
      return fail(LineNo, Err);
    auto Y = parseDtv(Body.substr(Comma + 1, SemiSep - Comma - 1));
    if (!Y)
      return fail(LineNo, Err);
    auto Z = parseDtv(Body.substr(SemiSep + 1));
    if (!Z)
      return fail(LineNo, Err);
    Out.addAddSub(AddSubConstraint{IsSub, std::move(*X), std::move(*Y),
                                   std::move(*Z)});
    return true;
  }

  // X <= Y
  size_t Arrow = Line.find("<=");
  if (Arrow == std::string_view::npos)
    return fail(LineNo, "expected '<=' in '" + std::string(Line) + "'");
  auto L = parseDtv(Line.substr(0, Arrow));
  if (!L)
    return fail(LineNo, Err);
  auto R = parseDtv(Line.substr(Arrow + 2));
  if (!R)
    return fail(LineNo, Err);
  Out.addSubtype(std::move(*L), std::move(*R));
  return true;
}

std::optional<ConstraintSet> ConstraintParser::parse(std::string_view Text) {
  // Counted so tests can prove the warm cache path never parses text
  // (scheme replay goes through the binary codec instead).
  countEvent(Counter::ConstraintParseCalls);
  ScopedPhaseTimer Timer(Phase::ParserParse);
  ConstraintSet Out;
  unsigned LineNo = 1;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    std::string_view Line =
        End == std::string_view::npos
            ? Text.substr(Pos)
            : Text.substr(Pos, End - Pos);
    if (!parseLine(Line, LineNo, Out))
      return std::nullopt;
    if (End == std::string_view::npos)
      break;
    Pos = End + 1;
    ++LineNo;
  }
  return Out;
}
