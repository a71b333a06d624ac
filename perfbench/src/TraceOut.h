//===- TraceOut.h - Benchmark-side spans as Chrome trace JSON --*- C++ -*-===//
//
// Part of the retypd benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its calls into the program, kept in
/// memory as Chrome trace events and written once at the end. Every span
/// of one benchmark operation carries the same `op` id; the op span
/// carries that operation's per-layer values as args. The events use
/// pid 2, so the file loads in Perfetto next to `retypd-cli --trace`
/// output (pid 1).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACEOUT_H
#define PERFBENCH_TRACEOUT_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One complete ('X') span as a Chrome trace event. \p Parent names the
/// enclosing span ("" for an op span); \p Input labels the op's input.
std::string traceSpan(const std::string &Name, const std::string &Cat,
                      uint64_t Op, const std::string &Parent,
                      std::chrono::steady_clock::time_point Start,
                      std::chrono::steady_clock::time_point End,
                      const std::map<std::string, double> &Args = {},
                      const std::string &Input = "");

/// The trace file: \p Events and \p Meta (the input shape) under
/// "otherData".
std::string traceJson(const std::vector<std::string> &Events,
                      const std::map<std::string, std::string> &Meta);

/// Appends \p S to \p Out as a JSON string body (no quotes).
void jsonEscape(std::string &Out, const std::string &S);

/// Formats a finite double with all its significant digits (JSON number).
std::string jsonNumber(double V);

} // namespace perfbench

#endif // PERFBENCH_TRACEOUT_H
