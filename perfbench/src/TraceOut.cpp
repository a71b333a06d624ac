//===- TraceOut.cpp - Benchmark-side spans as Chrome trace JSON -----------===//

#include "TraceOut.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

void jsonEscape(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

std::string traceSpan(const std::string &Name, const std::string &Cat,
                      uint64_t Op, const std::string &Parent,
                      std::chrono::steady_clock::time_point Start,
                      std::chrono::steady_clock::time_point End,
                      const std::map<std::string, double> &Args,
                      const std::string &Input) {
  using Us = std::chrono::duration<double, std::micro>;
  std::string Out = "{\"name\":\"";
  jsonEscape(Out, Name);
  Out += "\",\"cat\":\"";
  jsonEscape(Out, Cat);
  Out += "\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":" + jsonNumber(Us(Start.time_since_epoch()).count()) +
         ",\"dur\":" + jsonNumber(Us(End - Start).count()) +
         ",\"args\":{\"op\":" + std::to_string(Op);
  if (!Parent.empty()) {
    Out += ",\"parent\":\"";
    jsonEscape(Out, Parent);
    Out += '"';
  }
  if (!Input.empty()) {
    Out += ",\"input\":\"";
    jsonEscape(Out, Input);
    Out += '"';
  }
  for (const auto &[K, V] : Args) {
    Out += ",\"";
    jsonEscape(Out, K);
    Out += "\":" + jsonNumber(V);
  }
  return Out + "}}";
}

std::string traceJson(const std::vector<std::string> &Events,
                      const std::map<std::string, std::string> &Meta) {
  std::string Out = "{\"traceEvents\":[\n";
  Out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,\"tid\":1,"
         "\"args\":{\"name\":\"perfbench\"}}";
  for (const std::string &E : Events)
    Out += ",\n" + E;
  Out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  bool First = true;
  for (const auto &[K, V] : Meta) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    jsonEscape(Out, K);
    Out += "\":\"";
    jsonEscape(Out, V);
    Out += '"';
  }
  return Out + "}}\n";
}

} // namespace perfbench
