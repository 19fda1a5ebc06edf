//===- support/StringUtils.h - Text formatting helpers -------------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small text helpers shared by the table printer, the histograms, and
/// the experiment harnesses: formatting, and the one comma-list splitter
/// the drivers' list flags use.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_SUPPORT_STRINGUTILS_H
#define CCSIM_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <vector>

namespace ccsim {

/// Formats \p Value with \p Decimals digits after the point.
std::string formatDouble(double Value, int Decimals);

/// Formats \p Value as a percentage with \p Decimals digits, e.g. "24.3%".
std::string formatPercent(double Fraction, int Decimals = 1);

/// Formats a byte count with a binary-unit suffix, e.g. "171.0 KB".
std::string formatBytes(uint64_t Bytes);

/// Formats an integer with thousands separators, e.g. "18,043".
std::string formatWithCommas(uint64_t Value);

/// Pads \p S with spaces on the right to at least \p Width characters.
std::string padRight(const std::string &S, size_t Width);

/// Pads \p S with spaces on the left to at least \p Width characters.
std::string padLeft(const std::string &S, size_t Width);

/// Splits a comma-separated flag value ("gzip,vpr", "flush,8,fine") into
/// its entries, dropping empty ones.
std::vector<std::string> splitList(const std::string &Text);

} // namespace ccsim

#endif // CCSIM_SUPPORT_STRINGUTILS_H
